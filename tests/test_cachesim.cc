/**
 * Tests for the single-sweep multi-configuration cache simulation
 * (cachesim/sweep.hh): the sweep must be bitwise-identical to
 * independent per-config simulations, the reuse-distance analyzer must
 * agree with a direct fully-associative cache, and a sweep must cost
 * exactly one interpreter pass no matter how many configs it feeds.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cachesim/cache.hh"
#include "cachesim/sweep.hh"
#include "harness/batch.hh"
#include "interp/interp.hh"
#include "recording_sink.hh"
#include "suite/kernels.hh"
#include "support/stats.hh"

namespace memoria {
namespace {

CacheConfig
makeConfig(int64_t size, int assoc, int line)
{
    CacheConfig c;
    c.name = "t" + std::to_string(size) + "x" + std::to_string(assoc) +
             "x" + std::to_string(line);
    c.sizeBytes = size;
    c.associativity = assoc;
    c.lineBytes = line;
    return c;
}

/** A deterministic pseudo-random access trace with plenty of reuse. */
std::vector<AccessRecord>
syntheticTrace(size_t n)
{
    std::vector<AccessRecord> trace;
    trace.reserve(n);
    uint64_t state = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < n; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Mix streaming (i * 8) with reuse of a small working set.
        uint64_t addr = (i % 3 == 0) ? (state % 4096) * 8
                                     : (i * 8) % 65536;
        trace.push_back({addr, 8, i % 5 == 0});
    }
    return trace;
}

void
expectSameStats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.coldMisses, b.coldMisses);
    EXPECT_EQ(a.evictions, b.evictions);
}

TEST(Sweep, IdenticalToPerConfigAcrossGeometries)
{
    const std::vector<AccessRecord> trace = syntheticTrace(20000);

    // assoc "full" means fully associative: one set.
    std::vector<CacheConfig> configs;
    for (int line : {32, 128}) {
        const int64_t size = 4096;
        for (int assoc : {1, 2, 4})
            configs.push_back(makeConfig(size, assoc, line));
        configs.push_back(
            makeConfig(size, static_cast<int>(size / line), line));
    }

    MultiCacheSim sweep(configs);
    sweep.consumeBatch(trace.data(), trace.size());

    for (size_t i = 0; i < configs.size(); ++i) {
        Cache direct(configs[i]);
        for (const AccessRecord &r : trace)
            direct.probe(r.addr);
        expectSameStats(sweep.stats(i), direct.stats());
        sweep.stats(i).checkConsistent();
        EXPECT_EQ(sweep.stats(i).hits + sweep.stats(i).misses,
                  sweep.stats(i).accesses);
    }
}

TEST(Sweep, BatchBoundariesDoNotChangeCounters)
{
    const std::vector<AccessRecord> trace = syntheticTrace(10007);
    std::vector<CacheConfig> configs = {CacheConfig::i860(),
                                        CacheConfig::rs6000()};

    MultiCacheSim whole(configs);
    whole.consumeBatch(trace.data(), trace.size());

    MultiCacheSim chunked(configs);
    const size_t kChunk = 977;  // deliberately not a divisor
    for (size_t off = 0; off < trace.size(); off += kChunk) {
        size_t n = std::min(kChunk, trace.size() - off);
        chunked.consumeBatch(trace.data() + off, n);
    }

    for (size_t i = 0; i < configs.size(); ++i)
        expectSameStats(whole.stats(i), chunked.stats(i));
}

TEST(Sweep, ResetClearsEverything)
{
    const std::vector<AccessRecord> trace = syntheticTrace(5000);
    SweepReuseOptions reuse;
    reuse.enabled = true;
    MultiCacheSim sim({CacheConfig::i860()}, reuse);
    sim.consumeBatch(trace.data(), trace.size());
    ASSERT_GT(sim.stats(0).accesses, 0u);
    ASSERT_NE(sim.reuse(), nullptr);

    sim.reset();
    EXPECT_EQ(sim.stats(0).accesses, 0u);
    EXPECT_EQ(sim.reuse()->warmAccesses(), 0u);
    EXPECT_EQ(sim.reuse()->coldAccesses(), 0u);

    // After a reset the counters match a fresh simulation.
    sim.consumeBatch(trace.data(), trace.size());
    MultiCacheSim fresh({CacheConfig::i860()});
    fresh.consumeBatch(trace.data(), trace.size());
    expectSameStats(sim.stats(0), fresh.stats(0));
}

TEST(Sweep, ReuseDistanceMatchesFullyAssociativeCache)
{
    const std::vector<AccessRecord> trace = syntheticTrace(20000);
    const int lineBytes = 32;

    SweepReuseOptions reuse;
    reuse.enabled = true;
    reuse.lineBytes = lineBytes;
    MultiCacheSim sim(std::vector<CacheConfig>{}, reuse);
    sim.consumeBatch(trace.data(), trace.size());
    ASSERT_NE(sim.reuse(), nullptr);

    // A fully associative LRU cache of capacity C lines misses exactly
    // the cold accesses plus the warm accesses with reuse distance
    // >= C — the analyzer's missRatio must reproduce the direct
    // simulation for several capacities.
    for (int64_t capacityLines : {16, 64, 256}) {
        Cache direct(
            makeConfig(capacityLines * lineBytes,
                       static_cast<int>(capacityLines), lineBytes));
        for (const AccessRecord &r : trace)
            direct.probe(r.addr);

        uint64_t warm = sim.reuse()->warmAccesses();
        uint64_t cold = sim.reuse()->coldAccesses();
        EXPECT_EQ(cold, direct.stats().coldMisses);
        uint64_t predictedWarmMisses = static_cast<uint64_t>(
            sim.reuse()->missRatio(
                static_cast<uint64_t>(capacityLines)) *
                static_cast<double>(warm) +
            0.5);
        uint64_t directWarmMisses =
            direct.stats().misses - direct.stats().coldMisses;
        EXPECT_EQ(predictedWarmMisses, directWarmMisses)
            << "capacity " << capacityLines << " lines";
    }
}

TEST(Sweep, RunWithCachesMatchesRunWithCache)
{
    Program p = makeMatmul("IJK", 24);
    std::vector<CacheConfig> configs = {CacheConfig::rs6000(),
                                        CacheConfig::i860()};
    SweepResult sweep = runWithCaches(p, configs);
    ASSERT_EQ(sweep.cache.size(), configs.size());
    ASSERT_EQ(sweep.cycles.size(), configs.size());

    // An independent reference: record the stream once, then feed it
    // one Cache::access at a time into a standalone cache per config.
    Interpreter interp(p);
    RecordingSink rec;
    ASSERT_TRUE(interp.run(&rec).ok());
    EXPECT_EQ(rec.records.size(), sweep.exec.memRefs);
    const MachineModel machine;
    for (size_t i = 0; i < configs.size(); ++i) {
        Cache direct(configs[i]);
        for (const AccessRecord &r : rec.records)
            direct.access(r.addr, static_cast<int>(r.size), r.isWrite);
        expectSameStats(sweep.cache[i], direct.stats());
        double cycles =
            machine.cyclesPerStmt * interp.stats().stmtsExecuted +
            machine.cyclesPerRef * interp.stats().memRefs +
            machine.missPenalty * direct.stats().misses;
        EXPECT_DOUBLE_EQ(sweep.cycles[i], cycles);
        EXPECT_EQ(sweep.checksum, interp.checksum());
        EXPECT_EQ(sweep.exec.memRefs, interp.stats().memRefs);
        EXPECT_EQ(sweep.exec.loopIterations,
                  interp.stats().loopIterations);

        // The one-config entry point agrees too.
        Result<RunResult> one = tryRunWithCache(p, configs[i]);
        ASSERT_TRUE(one.ok());
        expectSameStats(one.value().cache, direct.stats());
        EXPECT_DOUBLE_EQ(one.value().cycles, cycles);
    }
}

TEST(Sweep, OneInterpreterPassPerSweep)
{
    Program p = makeAdiScalarized(16);
    std::vector<CacheConfig> configs = {CacheConfig::rs6000(),
                                        CacheConfig::i860()};

    obs::Counter &runs = obs::counter("interp.runs");
    uint64_t before = runs.value();
    SweepResult sweep = runWithCaches(p, configs);
    EXPECT_EQ(runs.value() - before, 1u)
        << "a 2-config sweep must execute the interpreter exactly once";
    ASSERT_EQ(sweep.cache.size(), 2u);
    EXPECT_EQ(sweep.cache[0].accesses, sweep.cache[1].accesses);

    before = runs.value();
    Result<RunResult> direct = tryRunWithCache(p, configs[0]);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(runs.value() - before, 1u);
}

TEST(Sweep, FaultingProgramReportsDiag)
{
    // MOD-by-zero style faults must come back as a Diag from the
    // checked sweep entry point, not abort the process.
    Program p = makeMatmul("IJK", 8);
    Result<SweepResult> ok =
        tryRunWithCaches(p, {CacheConfig::i860()});
    ASSERT_TRUE(ok.ok());

    // An empty config list still runs (exec stats only).
    SweepResult none = runWithCaches(p, {});
    EXPECT_EQ(none.cache.size(), 0u);
    EXPECT_GT(none.exec.memRefs, 0u);
    EXPECT_EQ(none.checksum, ok.value().checksum);
}


/** Exact counters of one original kernel on the paper's two caches. */
struct GoldenCounters
{
    const char *kernel;  ///< name as in harness::kernelInputs
    int64_t n;
    CacheStats i860;     ///< accesses, hits, misses, coldMisses, evictions
    CacheStats rs6000;
};

/**
 * Pinned counters: the 10 built-in kernels at n=24, then the six
 * sim_large benchmark kernels at sizes whose data outgrows both caches.
 * Recorded with the original AoS way-array simulator; any change to LRU
 * order, set indexing or the cold-line set shows up here.
 */
const GoldenCounters kGolden[] = {
    {"matmul-ijk", 24,
     {55296, 54455, 841, 432, 585},
     {55296, 55188, 108, 108, 0}},
    {"matmul-ikj", 24,
     {55296, 54329, 967, 432, 711},
     {55296, 55188, 108, 108, 0}},
    {"matmul-jki", 24,
     {55296, 54766, 530, 432, 274},
     {55296, 55188, 108, 108, 0}},
    {"cholesky", 24,
     {10076, 9992, 84, 84, 0},
     {10076, 10044, 32, 32, 0}},
    {"adi", 24,
     {5520, 5088, 432, 432, 176},
     {5520, 5412, 108, 108, 0}},
    {"erlebacher", 24,
     {170368, 101376, 68992, 15048, 68736},
     {170368, 161280, 9088, 3852, 8576}},
    {"gmtry", 24,
     {18124, 17980, 144, 144, 0},
     {18124, 18088, 36, 36, 0}},
    {"simple", 24,
     {3312, 2928, 384, 288, 128},
     {3312, 3240, 72, 72, 0}},
    {"vpenta", 24,
     {3456, 2592, 864, 432, 608},
     {3456, 3348, 108, 108, 0}},
    {"jacobi", 24,
     {3388, 3076, 312, 276, 56},
     {3388, 3318, 70, 70, 0}},
    {"adi", 72,
     {51120, 29120, 22000, 3888, 21744},
     {51120, 50040, 1080, 972, 568}},
    {"vpenta", 64,
     {24576, 0, 24576, 3072, 24320},
     {24576, 256, 24320, 768, 23808}},
    {"jacobi", 96,
     {61852, 21996, 39856, 4560, 39600},
     {61852, 59584, 2268, 1140, 1756}},
    {"erlebacher", 32,
     {432000, 199320, 232680, 36960, 232424},
     {432000, 410160, 21840, 9240, 21328}},
    {"cholesky", 144,
     {2021736, 1695695, 326041, 2664, 325785},
     {2021736, 2010224, 11512, 720, 11000}},
    {"matmul-ikj", 64,
     {1048576, 516128, 532448, 3072, 532192},
     {1048576, 1035964, 12612, 768, 12100}},
};

TEST(CacheGolden, KernelCountersArePinned)
{
    for (const GoldenCounters &g : kGolden) {
        SCOPED_TRACE(std::string(g.kernel) + " n=" + std::to_string(g.n));
        const std::vector<harness::BatchInput> inputs =
            harness::kernelInputs(g.n);
        auto in = std::find_if(inputs.begin(), inputs.end(),
                               [&](const harness::BatchInput &b) {
                                   return b.name == g.kernel;
                               });
        ASSERT_NE(in, inputs.end());
        Result<Program> prog = in->load();
        ASSERT_TRUE(prog.ok());
        SweepResult r = runWithCaches(
            prog.value(), {CacheConfig::i860(), CacheConfig::rs6000()});
        ASSERT_EQ(r.cache.size(), 2u);
        expectSameStats(r.cache[0], g.i860);
        expectSameStats(r.cache[1], g.rs6000);
    }
}

} // namespace
} // namespace memoria
