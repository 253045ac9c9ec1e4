/** Unit tests for the set-associative LRU cache simulator. */

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "cachesim/cache.hh"
#include "reference_cache.hh"

namespace memoria {
namespace {

CacheConfig
tinyCache(int64_t size, int assoc, int line)
{
    CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = size;
    c.associativity = assoc;
    c.lineBytes = line;
    return c;
}

TEST(Cache, Configs)
{
    CacheConfig c1 = CacheConfig::rs6000();
    EXPECT_EQ(c1.sizeBytes, 64 * 1024);
    EXPECT_EQ(c1.associativity, 4);
    EXPECT_EQ(c1.lineBytes, 128);
    EXPECT_EQ(c1.numSets(), 128);

    CacheConfig c2 = CacheConfig::i860();
    EXPECT_EQ(c2.numSets(), 128);
}

TEST(Cache, SpatialHitsWithinLine)
{
    Cache c(tinyCache(1024, 2, 32));
    // 8-byte elements: 4 per 32-byte line -> 1 miss + 3 hits per line.
    for (uint64_t a = 0; a < 32 * 8; a += 8)
        c.access(a, 8, false);
    EXPECT_EQ(c.stats().accesses, 32u);
    EXPECT_EQ(c.stats().misses, 8u);
    EXPECT_EQ(c.stats().hits, 24u);
    EXPECT_EQ(c.stats().coldMisses, 8u);
    EXPECT_DOUBLE_EQ(c.stats().hitRate(), 75.0);
    // With cold misses excluded every warm access hit.
    EXPECT_DOUBLE_EQ(c.stats().hitRateWarm(), 100.0);
}

TEST(Cache, TemporalReuseWithinCapacity)
{
    Cache c(tinyCache(1024, 2, 32));
    for (int pass = 0; pass < 3; ++pass)
        for (uint64_t a = 0; a < 1024; a += 32)
            c.access(a, 8, false);
    // 32 lines fit exactly: only the first pass misses.
    EXPECT_EQ(c.stats().misses, 32u);
    EXPECT_EQ(c.stats().coldMisses, 32u);
}

TEST(Cache, LruEviction)
{
    // 1 set, 2 ways, 32B lines: a direct test of LRU order.
    Cache c(tinyCache(64, 2, 32));
    EXPECT_FALSE(c.probe(0));       // miss, loads line 0
    EXPECT_FALSE(c.probe(64));      // miss, loads line 2 (same set)
    EXPECT_TRUE(c.probe(0));        // hit, line 0 now MRU
    EXPECT_FALSE(c.probe(128));     // evicts line 2 (LRU)
    EXPECT_TRUE(c.probe(0));        // line 0 still resident
    EXPECT_FALSE(c.probe(64));      // line 2 was evicted
}

TEST(Cache, ConflictMissesInDirectMapped)
{
    // Direct-mapped, 2 sets: addresses 0 and 64 conflict (same set).
    Cache c(tinyCache(64, 1, 32));
    c.probe(0);
    c.probe(64);
    EXPECT_FALSE(c.probe(0));  // was evicted by 64
    // Cold misses counted once per distinct line.
    EXPECT_EQ(c.stats().coldMisses, 2u);
    EXPECT_EQ(c.stats().misses, 3u);
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(tinyCache(64, 2, 32));
    c.probe(0);
    c.probe(32);
    c.reset();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_FALSE(c.probe(0));
    EXPECT_EQ(c.stats().coldMisses, 1u);
}

/**
 * Seeded address stream over `regions` regions `stride` bytes apart,
 * starting at `base` (sums wrap modulo 2^64): half the accesses reuse a
 * small hot span, a quarter land anywhere in `span` bytes, and a
 * quarter stream forward through it.
 */
std::vector<uint64_t>
randomStream(uint64_t seed, size_t n, uint64_t base, uint64_t span,
             uint64_t stride = 0, int regions = 1)
{
    std::mt19937_64 rng(seed);
    std::vector<uint64_t> out;
    out.reserve(n);
    uint64_t seq = 0;
    for (size_t i = 0; i < n; ++i) {
        uint64_t region = rng() % static_cast<uint64_t>(regions);
        uint64_t off;
        switch (rng() % 4) {
          case 0:
          case 1:
            off = rng() % (span / 16 + 1);
            break;
          case 2:
            off = rng() % span;
            break;
          default:
            off = (seq += 8) % span;
            break;
        }
        out.push_back(base + region * stride + off);
    }
    return out;
}

::testing::AssertionResult
sameStats(const CacheStats &a, const CacheStats &b)
{
    if (a.accesses == b.accesses && a.hits == b.hits &&
        a.misses == b.misses && a.coldMisses == b.coldMisses &&
        a.evictions == b.evictions)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "accesses " << a.accesses << "/" << b.accesses << ", hits "
           << a.hits << "/" << b.hits << ", misses " << a.misses << "/"
           << b.misses << ", cold " << a.coldMisses << "/" << b.coldMisses
           << ", evictions " << a.evictions << "/" << b.evictions;
}

/** Feed `stream` to Cache and ReferenceCache side by side, resetting
 *  both before access `resetAt`; every probe result and all five
 *  counters must agree after every access. */
void
expectMatchesReference(const CacheConfig &config,
                       const std::vector<uint64_t> &stream,
                       size_t resetAt = SIZE_MAX)
{
    Cache cache(config);
    ReferenceCache ref(config);
    for (size_t i = 0; i < stream.size(); ++i) {
        if (i == resetAt) {
            cache.reset();
            ref.reset();
        }
        ASSERT_EQ(cache.probe(stream[i]), ref.probe(stream[i]))
            << "access " << i << " addr " << stream[i];
        ASSERT_TRUE(sameStats(cache.stats(), ref.stats()))
            << "after access " << i << " (cache/reference)";
    }
    EXPECT_GT(cache.stats().evictions, 0u) << "stream too small to evict";
    cache.stats().checkConsistent();
}

TEST(CacheReference, SetAssociative)
{
    for (int assoc : {1, 2, 4}) {
        SCOPED_TRACE("assoc " + std::to_string(assoc));
        expectMatchesReference(tinyCache(4096, assoc, 32),
                               randomStream(assoc, 20000, 0x10000, 16384));
    }
}

TEST(CacheReference, FullyAssociative)
{
    for (int assoc : {256, 512}) {
        SCOPED_TRACE("assoc " + std::to_string(assoc));
        expectMatchesReference(tinyCache(assoc * 32, assoc, 32),
                               randomStream(assoc, 20000, 0, assoc * 128));
    }
}

TEST(CacheReference, OneByteLinesNearTopOfAddressSpace)
{
    // Line ids are whole addresses; the stream ends at UINT64_MAX and a
    // second region wraps around to the bottom of the address space.
    const uint64_t span = 4096;
    const uint64_t top = std::numeric_limits<uint64_t>::max() - span + 1;
    expectMatchesReference(tinyCache(256, 2, 1),
                           randomStream(7, 20000, top, span, span, 2));
}

TEST(CacheReference, FarApartLines)
{
    // Regions 2^40 lines apart: at most one of them can share a dense
    // cold-line window with the first miss; the rest take the fallback.
    const uint64_t stride = (uint64_t{1} << 40) * 32;
    expectMatchesReference(tinyCache(4096, 4, 32),
                           randomStream(11, 20000, 0x4000, 16384, stride, 3));
}

TEST(CacheReference, ResetMidStream)
{
    const uint64_t stride = (uint64_t{1} << 40) * 32;
    expectMatchesReference(tinyCache(4096, 2, 32),
                           randomStream(13, 20000, 0x4000, 16384, stride, 2),
                           7919);
}

/** Property: at fixed size and line, higher associativity never turns a
 *  previously-hitting strided scan into more misses for LRU-friendly
 *  sequential workloads. */
class AssocSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(AssocSweep, SequentialScanMissesAreCompulsoryOnly)
{
    int assoc = GetParam();
    Cache c(tinyCache(4096, assoc, 32));
    for (uint64_t a = 0; a < 4096; a += 8)
        c.access(a, 8, false);
    EXPECT_EQ(c.stats().misses, 4096u / 32u);
}

INSTANTIATE_TEST_SUITE_P(Associativities, AssocSweep,
                         ::testing::Values(1, 2, 4, 8));

} // namespace
} // namespace memoria
