/**
 * @file
 * Reuse-distance (LRU stack distance) analysis.
 *
 * The reuse-distance histogram of an address trace determines the miss
 * ratio of a fully associative LRU cache of *every* capacity at once:
 * an access misses iff its reuse distance (number of distinct lines
 * touched since the previous access to the same line) is at least the
 * cache's line capacity. This gives a machine-independent way to see
 * what the paper's transformations do to a program's entire locality
 * profile, not just one cache geometry.
 *
 * Implementation: classic Bennett/Kruskal-style counting with a Fenwick
 * tree over access timestamps (O(log n) per access).
 */

#ifndef MEMORIA_CACHESIM_REUSE_HH
#define MEMORIA_CACHESIM_REUSE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace memoria {

/** Streams a trace and accumulates the reuse-distance histogram. */
class ReuseDistanceAnalyzer
{
  public:
    explicit ReuseDistanceAnalyzer(int lineBytes = 32);

    /** One scalar access of `size` bytes at virtual address `addr`. */
    void access(uint64_t addr, int size, bool isWrite);

    /** Histogram bucket counts: bucket b holds accesses with distance
     *  in [2^b, 2^(b+1)); bucket 0 holds distances 0 and 1. */
    const std::vector<uint64_t> &histogram() const { return histo_; }

    /** Cold (first-touch) accesses, excluded from the histogram. */
    uint64_t coldAccesses() const { return cold_; }

    /** Total non-cold accesses. */
    uint64_t warmAccesses() const { return total_; }

    /**
     * Miss ratio (0..1) of a fully associative LRU cache holding
     * `capacityLines` lines, computed from the exact distances (cold
     * misses excluded).
     */
    double missRatio(uint64_t capacityLines) const;

    /** Mean reuse distance over warm accesses. */
    double meanDistance() const;

  private:
    int lineShift_ = 0;
    uint64_t clock_ = 0;
    uint64_t cold_ = 0;
    uint64_t total_ = 0;
    std::unordered_map<uint64_t, uint64_t> lastUse_;  ///< line -> time
    std::vector<uint8_t> live_;  ///< timestamp is a line's latest use
    std::vector<uint64_t> fenwick_;
    std::vector<uint64_t> histo_;
    /** Exact distance counts (distance -> accesses), for missRatio. */
    std::map<uint64_t, uint64_t> exact_;

    void fenwickAdd(size_t pos, int64_t delta);
    uint64_t fenwickSum(size_t pos) const;  ///< prefix sum [0, pos]
};

} // namespace memoria

#endif // MEMORIA_CACHESIM_REUSE_HH
