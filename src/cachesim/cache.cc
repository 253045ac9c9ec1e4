#include "cachesim/cache.hh"

#include <algorithm>

#include "harness/fault.hh"
#include "support/logging.hh"
#include "support/stats.hh"

namespace memoria {

namespace {

/** Fires once per simulated run (at cache construction), so arming it
 *  never costs anything on the per-access hot path. */
harness::FaultSite gCachesimFault("cachesim.run");

} // namespace

CacheConfig
CacheConfig::rs6000()
{
    CacheConfig c;
    c.name = "cache1 (RS/6000 64KB 4-way 128B)";
    c.sizeBytes = 64 * 1024;
    c.associativity = 4;
    c.lineBytes = 128;
    return c;
}

CacheConfig
CacheConfig::i860()
{
    CacheConfig c;
    c.name = "cache2 (i860 8KB 2-way 32B)";
    c.sizeBytes = 8 * 1024;
    c.associativity = 2;
    c.lineBytes = 32;
    return c;
}

double
CacheStats::hitRate() const
{
    return accesses == 0 ? 100.0 : 100.0 * hits / accesses;
}

double
CacheStats::hitRateWarm() const
{
    uint64_t warm = accesses - coldMisses;
    return warm == 0 ? 100.0 : 100.0 * hits / warm;
}

void
CacheStats::checkConsistent() const
{
    MEMORIA_ASSERT(hits + misses == accesses,
                   "cache counters out of sync: " << hits << " hits + "
                       << misses << " misses != " << accesses
                       << " accesses");
    MEMORIA_ASSERT(coldMisses <= misses,
                   "more cold misses than misses");
    MEMORIA_ASSERT(evictions <= misses, "more evictions than misses");
}

Cache::Cache(CacheConfig config) : config_(std::move(config))
{
    gCachesimFault.fireNoDiag();
    MEMORIA_ASSERT(config_.lineBytes > 0 &&
                       (config_.lineBytes & (config_.lineBytes - 1)) == 0,
                   "line size must be a power of two");
    const int64_t sets = config_.numSets();
    MEMORIA_ASSERT(sets > 0 && (sets & (sets - 1)) == 0,
                   "set count must be a power of two");
    while ((1 << lineShift_) < config_.lineBytes)
        ++lineShift_;
    setMask_ = static_cast<uint64_t>(sets - 1);
    assoc_ = static_cast<uint32_t>(config_.associativity);
    tags_.assign(sets * assoc_, 0);
    fill_.assign(sets, 0);
    // Reserve the whole bitmap window here, on the constructing
    // thread: it is address space, not resident memory, until the
    // bitmap grows into it. Growing it from a pipelined sweep's
    // consumer thread (cachesim/sweep.hh) would allocate in that
    // thread's own malloc arena, which keeps the memory once freed.
    coldBits_.reserve(kColdWindowWords);
}

void
Cache::access(uint64_t addr, int size, bool isWrite)
{
    (void)size;
    (void)isWrite;
    probe(addr);
}

bool
Cache::probe(uint64_t addr)
{
    const uint64_t line = addr >> lineShift_;
    const uint64_t set = line & setMask_;
    uint64_t *ways = &tags_[set * assoc_];
    uint32_t &fill = fill_[set];
    ++stats_.accesses;

    for (uint32_t w = 0; w < fill; ++w) {
        if (ways[w] == line) {
            // Move to the MRU slot; ways [0, w) age by one.
            std::copy_backward(ways, ways + w, ways + w + 1);
            ways[0] = line;
            ++stats_.hits;
            MEMORIA_ASSERT(stats_.hits + stats_.misses == stats_.accesses,
                           "cache counters out of sync");
            return true;
        }
    }

    ++stats_.misses;
    MEMORIA_ASSERT(stats_.hits + stats_.misses == stats_.accesses,
                   "cache counters out of sync");
    if (firstTouch(line))
        ++stats_.coldMisses;
    if (fill == assoc_)
        ++stats_.evictions;  // the LRU line in the last way drops off
    else
        ++fill;
    std::copy_backward(ways, ways + fill - 1, ways + fill);
    ways[0] = line;
    return false;
}

bool
Cache::firstTouch(uint64_t line)
{
    // Widen the bitmap to cover `line` unless the span would exceed the
    // window. The span only widens, so a line refused once is refused
    // for good and lives in exactly one of the two sets.
    const uint64_t word = line >> 6;
    if (coldBits_.empty())
        coldBaseWord_ = word;
    const uint64_t have = coldBits_.size();
    const uint64_t span = std::max(word + 1, coldBaseWord_ + have) -
                          std::min(word, coldBaseWord_);
    if (span > kColdWindowWords)
        return coldFar_.insert(line).second;
    if (word < coldBaseWord_) {
        const uint64_t grow = std::min({std::max(span - have, have),
                                        kColdWindowWords - have,
                                        coldBaseWord_});
        coldBits_.insert(coldBits_.begin(), grow, 0);
        coldBaseWord_ -= grow;
    } else if (span > have) {
        coldBits_.resize(std::min(std::max(span, 2 * have),
                                  kColdWindowWords));
    }
    uint64_t &bits = coldBits_[word - coldBaseWord_];
    const uint64_t bit = uint64_t{1} << (line & 63);
    const bool first = !(bits & bit);
    bits |= bit;
    return first;
}

void
Cache::publishStats(const std::string &prefix) const
{
    stats_.checkConsistent();
    obs::counter(prefix + ".accesses") += stats_.accesses;
    obs::counter(prefix + ".hits") += stats_.hits;
    obs::counter(prefix + ".misses") += stats_.misses;
    obs::counter(prefix + ".cold_misses") += stats_.coldMisses;
    obs::counter(prefix + ".evictions") += stats_.evictions;
}

void
Cache::reset()
{
    stats_ = CacheStats{};
    std::fill(fill_.begin(), fill_.end(), 0);  // tags past fill are dead
    coldBits_.clear();
    coldFar_.clear();
}

} // namespace memoria
