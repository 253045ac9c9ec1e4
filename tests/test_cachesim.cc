/**
 * Tests for the single-sweep multi-configuration cache simulation
 * (cachesim/sweep.hh): the sweep must be bitwise-identical to
 * independent per-config simulations, the reuse-distance analyzer must
 * agree with a direct fully-associative cache, and a sweep must cost
 * exactly one interpreter pass no matter how many configs it feeds.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "cachesim/cache.hh"
#include "cachesim/sweep.hh"
#include "frontend/parser.hh"
#include "harness/batch.hh"
#include "harness/budget.hh"
#include "interp/interp.hh"
#include "recording_sink.hh"
#include "suite/kernels.hh"
#include "support/cores.hh"
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

/** A built-in kernel as the batch driver loads it. */
Program
loadKernel(const std::string &name, int64_t n)
{
    const std::vector<harness::BatchInput> inputs = harness::kernelInputs(n);
    auto in = std::find_if(inputs.begin(), inputs.end(),
                           [&](const harness::BatchInput &b) {
                               return b.name == name;
                           });
    EXPECT_NE(in, inputs.end()) << name;
    if (in == inputs.end())
        return Program{};
    Result<Program> prog = in->load();
    EXPECT_TRUE(prog.ok()) << name;
    return prog.ok() ? std::move(prog.value()) : Program{};
}

TEST(CacheGolden, KernelCountersArePinned)
{
    for (const GoldenCounters &g : kGolden) {
        SCOPED_TRACE(std::string(g.kernel) + " n=" + std::to_string(g.n));
        SweepResult r = runWithCaches(
            loadKernel(g.kernel, g.n),
            {CacheConfig::i860(), CacheConfig::rs6000()});
        ASSERT_EQ(r.cache.size(), 2u);
        expectSameStats(r.cache[0], g.i860);
        expectSameStats(r.cache[1], g.rs6000);
    }
}


// --- Pipelined sweep (PipelinedSweep, tryRunWithCaches) -------------

constexpr size_t kBatch = BatchingListener::kDefaultBatch;

uint64_t
consumersStarted()
{
    return obs::counter("cachesim.pipeline.consumers").value();
}

/** Whether a sweep started now would get its consumer thread: true on
 *  any host with two cores or more, as nothing here holds a core. */
bool
spareCore()
{
    if (!cores::tryClaimCore())
        return false;
    cores::releaseCore();
    return true;
}

/** A one-statement stream of exactly 2 * n accesses (a read and a
 *  write of A(I) per iteration); `extent` below n faults at I =
 *  extent + 1 with an out-of-bounds subscript. */
Program
streamProgram(int64_t n, int64_t extent = 20000)
{
    const std::string src =
        "PROGRAM stream\n"
        "  PARAMETER N = " + std::to_string(n) + "\n"
        "  PARAMETER M = " + std::to_string(extent) + "\n"
        "  REAL*8 A(M)\n"
        "  DO I = 1, N\n"
        "    A(I) = A(I) + 1.5\n"
        "  ENDDO\n"
        "END\n";
    ParseError err;
    std::optional<Program> p = parseProgram(src, &err);
    EXPECT_TRUE(p) << err.str();
    return p ? std::move(*p) : Program{};
}

/** Counters, cycles and checksum of `sweep` against `p`'s recorded
 *  stream fed one Cache::access at a time into standalone caches. */
void
expectMatchesRecordedStream(const Program &p,
                            const std::vector<CacheConfig> &configs,
                            const SweepResult &sweep)
{
    Interpreter interp(p);
    RecordingSink rec;
    ASSERT_TRUE(interp.run(&rec).ok());
    ASSERT_EQ(sweep.cache.size(), configs.size());
    EXPECT_EQ(sweep.exec.memRefs, rec.records.size());
    EXPECT_EQ(sweep.checksum, interp.checksum());
    const MachineModel machine;
    for (size_t i = 0; i < configs.size(); ++i) {
        Cache direct(configs[i]);
        for (const AccessRecord &r : rec.records)
            direct.access(r.addr, static_cast<int>(r.size), r.isWrite);
        expectSameStats(sweep.cache[i], direct.stats());
        EXPECT_DOUBLE_EQ(sweep.cycles[i],
                         machine.cyclesPerStmt * sweep.exec.stmtsExecuted +
                             machine.cyclesPerRef * sweep.exec.memRefs +
                             machine.missPenalty * direct.stats().misses);
    }
}

TEST(Pipeline, AdapterMatchesDirectCachesForAnyBatching)
{
    const std::vector<CacheConfig> configs = {
        CacheConfig::i860(), CacheConfig::rs6000(),
        makeConfig(1024, 1, 16)};
    const std::vector<AccessRecord> trace = syntheticTrace(5 * kBatch + 77);
    struct Case
    {
        size_t total;   ///< records fed
        size_t chunk;   ///< batch size handed to the adapter
        bool threaded;  ///< expect a consumer thread
    };
    const Case cases[] = {
        {0, kBatch, false},
        {kBatch - 1, kBatch, false},       // one partial batch: inline
        {kBatch, kBatch, true},            // exactly one full batch
        {3 * kBatch, kBatch, true},        // k full batches
        {5 * kBatch + 77, kBatch, true},   // k full + a partial one
        {5 * kBatch + 77, 10000, true},    // batches larger than a slot
        {5 * kBatch + 77, 1000, false},    // small batches stay inline
    };
    for (const Case &c : cases) {
        SCOPED_TRACE("total " + std::to_string(c.total) + " chunk " +
                     std::to_string(c.chunk));
        MultiCacheSim sim(configs);
        const uint64_t before = consumersStarted();
        {
            PipelinedSweep pipe(sim);
            for (size_t i = 0; i < c.total; i += c.chunk)
                pipe.consumeBatch(trace.data() + i,
                                  std::min(c.chunk, c.total - i));
            pipe.drain();
            pipe.drain();  // idempotent
        }
        EXPECT_EQ(consumersStarted() - before,
                  c.threaded && spareCore() ? 1u : 0u);
        for (size_t k = 0; k < configs.size(); ++k) {
            Cache direct(configs[k]);
            for (size_t i = 0; i < c.total; ++i)
                direct.access(trace[i].addr, 8, trace[i].isWrite);
            expectSameStats(sim.stats(k), direct.stats());
        }
    }
}

TEST(Pipeline, SweepMatchesRecordedStreamAtBatchBoundaries)
{
    const std::vector<CacheConfig> configs = {CacheConfig::i860(),
                                              CacheConfig::rs6000()};
    // 2 accesses per iteration: 0, < 1 batch, exactly 1 and 3 batches,
    // and 3 batches plus a 12-record partial one.
    const int64_t iterations[] = {0, 100, kBatch / 2, 3 * kBatch / 2,
                                  3 * kBatch / 2 + 6};
    for (int64_t n : iterations) {
        SCOPED_TRACE("n " + std::to_string(n));
        const Program p = streamProgram(n);
        const uint64_t before = consumersStarted();
        Result<SweepResult> r = tryRunWithCaches(p, configs);
        ASSERT_TRUE(r.ok()) << r.diag().str();
        EXPECT_EQ(r.value().exec.memRefs, static_cast<uint64_t>(2 * n));
        EXPECT_EQ(consumersStarted() - before,
                  2 * static_cast<uint64_t>(n) >= kBatch && spareCore()
                      ? 1u
                      : 0u);
        expectMatchesRecordedStream(p, configs, r.value());
    }
}

TEST(Pipeline, FaultingMultiBatchProgramReturnsTheSameDiag)
{
    // Faults at I = 7001, after about 3.4 batches of accesses.
    const Program p = streamProgram(9000, 7000);
    Interpreter ref(p);
    RecordingSink rec;
    const Status want = ref.run(&rec);
    ASSERT_FALSE(want.ok());
    ASSERT_GT(rec.records.size(), 3 * kBatch);

    const auto start = std::chrono::steady_clock::now();
    Result<SweepResult> r =
        tryRunWithCaches(p, {CacheConfig::i860(), CacheConfig::rs6000()});
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.diag().str(), want.diag().str());
    // A hang here would be a consumer left waiting; the bound is loose
    // enough for sanitizer builds.
    EXPECT_LT(ms.count(), 10000);

    // The consumer saw the stream up to the fault, partial batch too.
    MultiCacheSim sim({CacheConfig::i860()});
    {
        PipelinedSweep pipe(sim);
        Interpreter interp(p);
        EXPECT_FALSE(interp.run(&pipe).ok());
        pipe.drain();
    }
    EXPECT_EQ(sim.stats(0).accesses, rec.records.size());
}

TEST(Pipeline, CancelledSweepJoinsAndTheNextSweepIsExact)
{
    const GoldenCounters &g = kGolden[std::size(kGolden) - 1];
    ASSERT_STREQ(g.kernel, "matmul-ikj");
    const Program p = loadKernel(g.kernel, g.n);
    const std::vector<CacheConfig> configs = {CacheConfig::i860(),
                                              CacheConfig::rs6000()};
    {
        harness::Budget budget;
        budget.maxInterpIterations = 32768;  // 8 interpreter polls
        harness::CancelToken token(budget);
        harness::BudgetScope scope(&token);
        const uint64_t before = consumersStarted();
        EXPECT_THROW(tryRunWithCaches(p, configs), harness::CancelledError);
        // Cancelled mid-stream: the consumer had started and was joined.
        EXPECT_EQ(consumersStarted() - before, spareCore() ? 1u : 0u);
    }
    SweepResult r = runWithCaches(p, configs);
    expectSameStats(r.cache[0], g.i860);
    expectSameStats(r.cache[1], g.rs6000);
}

/** Throws on its third batch. */
class ThrowingSink final : public AccessBatchSink
{
  public:
    void
    consumeBatch(const AccessRecord *, size_t) override
    {
        if (++batches == 3)
            throw std::runtime_error("sink failed");
    }
    int batches = 0;
};

TEST(Pipeline, DrainRethrowsWhatTheConsumerThrew)
{
    const std::vector<AccessRecord> trace = syntheticTrace(12 * kBatch);
    ThrowingSink sink;
    PipelinedSweep pipe(sink);
    // The producer must not block on a consumer that has given up.
    for (size_t i = 0; i < trace.size(); i += kBatch)
        pipe.consumeBatch(trace.data() + i, kBatch);
    EXPECT_THROW(pipe.drain(), std::runtime_error);
    EXPECT_EQ(sink.batches, 3);
}

/** Holds every spare core, as a pool with a worker on each would. */
class AllCoresClaimed
{
  public:
    AllCoresClaimed()
    {
        while (cores::tryClaimCore())
            ++claimed_;
    }
    ~AllCoresClaimed()
    {
        for (; claimed_ > 0; --claimed_)
            cores::releaseCore();
    }

  private:
    int claimed_ = 0;
};

uint64_t
inlineSweeps()
{
    return obs::counter("cachesim.pipeline.inline").value();
}

TEST(Pipeline, WithoutASpareCoreTheSweepRunsInline)
{
    const std::vector<CacheConfig> configs = {CacheConfig::i860(),
                                              CacheConfig::rs6000()};
    const Program p = streamProgram(3 * kBatch / 2 + 6);
    const uint64_t consumers = consumersStarted();
    const uint64_t inlined = inlineSweeps();
    Result<SweepResult> r = [&] {
        AllCoresClaimed saturated;
        EXPECT_FALSE(spareCore());
        return tryRunWithCaches(p, configs);
    }();
    ASSERT_TRUE(r.ok()) << r.diag().str();
    EXPECT_EQ(consumersStarted(), consumers);
    EXPECT_EQ(inlineSweeps(), inlined + 1);
    expectMatchesRecordedStream(p, configs, r.value());
}

/** Claims until none is spare; gives them all back. */
int
claimableCores()
{
    int n = 0;
    while (cores::tryClaimCore())
        ++n;
    for (int i = 0; i < n; ++i)
        cores::releaseCore();
    return n;
}

TEST(Pipeline, EachBusyThreadHoldsOneCore)
{
    const int all =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    // A thread outside any pool counts itself once.
    EXPECT_EQ(claimableCores(), all - 1);

    // One worker busy elsewhere, this thread busy in nested scopes.
    std::mutex mu;
    std::condition_variable cv;
    bool busy = false;
    bool release = false;
    std::thread worker([&] {
        cores::BusyScope scope;
        std::unique_lock<std::mutex> lk(mu);
        busy = true;
        cv.notify_all();
        cv.wait(lk, [&] { return release; });
    });
    {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return busy; });
    }
    {
        cores::BusyScope outer;
        cores::BusyScope inner;
        EXPECT_EQ(claimableCores(), std::max(0, all - 2));
    }
    {
        std::lock_guard<std::mutex> lk(mu);
        release = true;
    }
    cv.notify_all();
    worker.join();
    EXPECT_EQ(claimableCores(), all - 1);
}

/** Bytes of address space this process has mapped. */
uint64_t
addressSpaceBytes()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t pages = 0;
    statm >> pages;
    return pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(PipelineDeathTest, NoThreadToBeHadFallsBackInline)
{
    if (kSanitized)
        GTEST_SKIP() << "a sanitizer runtime maps more than the limit leaves";
    if (!spareCore())
        GTEST_SKIP() << "no spare core: the sweep never makes a thread";
    // Re-executed, not forked: a forked child could reuse a cached
    // stack of an earlier test's thread and never hit the limit.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            const std::vector<AccessRecord> trace =
                syntheticTrace(5 * kBatch + 77);
            Cache direct(CacheConfig::i860());
            for (const AccessRecord &r : trace)
                direct.access(r.addr, 8, r.isWrite);
            MultiCacheSim sim({CacheConfig::i860()});
            const uint64_t consumers = consumersStarted();
            const uint64_t inlined = inlineSweeps();
            {
                PipelinedSweep pipe(sim);
                // Room for the ring, none for a thread stack.
                rlimit old{};
                getrlimit(RLIMIT_AS, &old);
                rlimit tight = old;
                tight.rlim_cur = addressSpaceBytes() + (1u << 20);
                setrlimit(RLIMIT_AS, &tight);
                for (size_t i = 0; i < trace.size(); i += kBatch)
                    pipe.consumeBatch(trace.data() + i,
                                      std::min(kBatch, trace.size() - i));
                pipe.drain();
                setrlimit(RLIMIT_AS, &old);
            }
            const CacheStats &a = sim.stats(0);
            const CacheStats &b = direct.stats();
            const bool same = a.accesses == b.accesses && a.hits == b.hits &&
                              a.misses == b.misses &&
                              a.coldMisses == b.coldMisses &&
                              a.evictions == b.evictions;
            std::_Exit(same && consumersStarted() == consumers &&
                               inlineSweeps() == inlined + 1
                           ? 0
                           : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace memoria
