/**
 * @file
 * Two-level cache hierarchy.
 *
 * Section 1.1 notes that "higher degrees of tiling can be applied to
 * exploit multi-level caches"; this class models an L1 backed by an
 * L2 so those experiments can be run. L2 sees only L1 misses.
 */

#ifndef MEMORIA_CACHESIM_HIERARCHY_HH
#define MEMORIA_CACHESIM_HIERARCHY_HH

#include "cachesim/cache.hh"

namespace memoria {

/** An L1 cache backed by an L2; accesses filter through. */
class CacheHierarchy
{
  public:
    CacheHierarchy(CacheConfig l1, CacheConfig l2)
        : l1_(std::move(l1)), l2_(std::move(l2))
    {
    }

    void
    access(uint64_t addr, int size, bool isWrite)
    {
        (void)size;
        (void)isWrite;
        if (!l1_.probe(addr))
            l2_.probe(addr);
    }

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }

    /** Average access latency under a simple 1/10/100-cycle model. */
    double
    averageLatency(double hitL1 = 1.0, double hitL2 = 10.0,
                   double memory = 100.0) const
    {
        const CacheStats &s1 = l1_.stats();
        const CacheStats &s2 = l2_.stats();
        if (s1.accesses == 0)
            return hitL1;
        double total = hitL1 * static_cast<double>(s1.accesses) +
                       hitL2 * static_cast<double>(s1.misses) +
                       (memory - hitL2) *
                           static_cast<double>(s2.misses);
        return total / static_cast<double>(s1.accesses);
    }

  private:
    Cache l1_;
    Cache l2_;
};

} // namespace memoria

#endif // MEMORIA_CACHESIM_HIERARCHY_HH
