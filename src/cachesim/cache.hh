/**
 * @file
 * Set-associative cache simulator with LRU replacement.
 *
 * Models the two configurations of the paper's Table 4: cache1, the IBM
 * RS/6000 data cache (64KB, 4-way, 128-byte lines), and cache2, the
 * Intel i860 (8KB, 2-way, 32-byte lines). Hit rates can be reported
 * with cold (first-touch) misses excluded, as the paper does.
 */

#ifndef MEMORIA_CACHESIM_CACHE_HH
#define MEMORIA_CACHESIM_CACHE_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace memoria {

/** Geometry of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    int64_t sizeBytes = 64 * 1024;
    int associativity = 4;
    int lineBytes = 128;

    int64_t
    numSets() const
    {
        return sizeBytes / (static_cast<int64_t>(associativity) *
                            lineBytes);
    }

    /** cache1: IBM RS/6000 — 64KB, 4-way, 128-byte lines. */
    static CacheConfig rs6000();

    /** cache2: Intel i860 — 8KB, 2-way, 32-byte lines. */
    static CacheConfig i860();
};

/** Hit/miss counters. Invariant: hits + misses == accesses (asserted
 *  by Cache on every probe; see checkConsistent). */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t coldMisses = 0;
    uint64_t evictions = 0;  ///< valid lines displaced by a fill

    /** Hit rate in percent over all accesses. */
    double hitRate() const;

    /** Hit rate in percent with cold misses excluded (Table 4). */
    double hitRateWarm() const;

    /** Panics unless the counters reconcile (hits + misses == accesses,
     *  cold misses and evictions bounded by misses). */
    void checkConsistent() const;
};

/**
 * A single-level set-associative LRU cache.
 *
 * Flat layout: one tag array of numSets x associativity line ids, each
 * set kept in MRU-first order with a per-set fill count, so the valid
 * ways are a prefix and a repeat touch of the MRU line costs one
 * compare. The set index is a shift and a mask. Cold misses come from
 * a bitmap over line ids that grows to cover the touched span (up to
 * kColdWindowWords words, reserved at construction so probing never
 * reallocates it); lines beyond that window go to a hash set.
 */
class Cache
{
  public:
    explicit Cache(CacheConfig config);

    /** One scalar access of `size` bytes at virtual address `addr`. */
    void access(uint64_t addr, int size, bool isWrite);

    /** Probe one address; returns true on hit. Updates LRU state. */
    bool probe(uint64_t addr);

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }

    /** Empty the cache and zero the statistics. */
    void reset();

    /** Add this cache's counters into the process stats registry under
     *  `prefix` (e.g. "cachesim"). */
    void publishStats(const std::string &prefix = "cachesim") const;

  private:
    /** Largest cold-line bitmap, in 64-line words (2^24 lines, 2MB). */
    static constexpr uint64_t kColdWindowWords = uint64_t{1} << 18;

    /** Record a miss on `line`; true if it was never missed before. */
    bool firstTouch(uint64_t line);

    CacheConfig config_;
    CacheStats stats_;
    int lineShift_ = 0;
    uint64_t setMask_ = 0;
    uint32_t assoc_ = 0;
    std::vector<uint64_t> tags_;  ///< numSets x assoc, each set MRU first
    std::vector<uint32_t> fill_;  ///< valid (prefix) ways per set
    /** Bit i of coldBits_[w] is line 64 * (coldBaseWord_ + w) + i. */
    std::vector<uint64_t> coldBits_;
    uint64_t coldBaseWord_ = 0;
    std::unordered_set<uint64_t> coldFar_;  ///< lines outside the bitmap
};

} // namespace memoria

#endif // MEMORIA_CACHESIM_CACHE_HH
