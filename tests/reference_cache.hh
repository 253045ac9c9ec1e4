/**
 * @file
 * Reference LRU cache for differential tests of cachesim/cache.hh.
 *
 * The straightforward model the simulator started from: an array of
 * ways per set, each with a valid bit and a last-use stamp from a
 * global clock; a miss fills an invalid way or else the way with the
 * oldest stamp, and cold misses are counted with a hash set of every
 * line ever missed. Slow, but obviously LRU, so the flat `Cache` is
 * checked against it access by access.
 */

#ifndef MEMORIA_TESTS_REFERENCE_CACHE_HH
#define MEMORIA_TESTS_REFERENCE_CACHE_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cachesim/cache.hh"

namespace memoria {

/** The AoS way-array + global-clock LRU cache. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : assoc_(config.associativity), numSets_(config.numSets())
    {
        while ((int64_t{1} << lineShift_) < config.lineBytes)
            ++lineShift_;
        ways_.assign(numSets_ * assoc_, Way{});
    }

    /** Probe one address; returns true on hit. */
    bool
    probe(uint64_t addr)
    {
        uint64_t line = addr >> lineShift_;
        Way *base = &ways_[(line & (numSets_ - 1)) * assoc_];
        ++clock_;
        ++stats_.accesses;

        Way *victim = base;
        for (int w = 0; w < assoc_; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == line) {
                way.lastUse = clock_;
                ++stats_.hits;
                return true;
            }
            if (!way.valid)
                victim = &way;
            else if (victim->valid && way.lastUse < victim->lastUse)
                victim = &way;
        }

        ++stats_.misses;
        if (touchedLines_.insert(line).second)
            ++stats_.coldMisses;
        if (victim->valid)
            ++stats_.evictions;
        *victim = {line, clock_, true};
        return false;
    }

    void
    reset()
    {
        stats_ = CacheStats{};
        touchedLines_.clear();
        ways_.assign(ways_.size(), Way{});
        clock_ = 0;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    int assoc_;
    uint64_t numSets_;
    int lineShift_ = 0;
    CacheStats stats_;
    std::vector<Way> ways_;  ///< numSets x associativity, row-major
    std::unordered_set<uint64_t> touchedLines_;
    uint64_t clock_ = 0;
};

} // namespace memoria

#endif // MEMORIA_TESTS_REFERENCE_CACHE_HH
