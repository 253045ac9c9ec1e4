/**
 * @file
 * Timed runs: the end-to-end metrics, measured with no tracing.
 *
 * batch_compile and sim_large are closed loops: whole `runBatch`
 * passes back to back.
 */

#include <iostream>
#include <limits>

#include "bench.hh"

namespace perfbench {

using namespace memoria;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

/** What must repeat bit-for-bit in every pass of one program. */
struct ProgramShape
{
    std::vector<std::string> strategies;
    std::vector<uint64_t> sims;  ///< accesses, hits, misses per cache
};

ProgramShape
shapeOf(const harness::ProgramOutcome &p)
{
    ProgramShape s;
    for (const harness::NestOutcome &n : p.nests)
        s.strategies.push_back(n.strategy + (n.rolledBack ? "!" : ""));
    for (const auto &sim : p.sims) {
        s.sims.push_back(sim.accesses);
        s.sims.push_back(sim.hits);
        s.sims.push_back(sim.misses);
    }
    return s;
}

/**
 * Check one pass: every program ok with no contained failure, sim
 * counters reconciling, and the same strategies and per-cache counts as
 * the first pass. Returns the number of failed programs.
 */
uint64_t
checkPass(const harness::BatchReport &rep, const BatchWorkload &w,
          std::vector<ProgramShape> &first, RunResult &res)
{
    uint64_t failed = 0;
    const bool firstPass = first.empty();
    for (size_t i = 0; i < rep.programs.size(); ++i) {
        const harness::ProgramOutcome &p = rep.programs[i];
        if (p.contained()) {
            ++failed;
            res.fail(p.name + ": " + harness::batchStatusName(p.status) +
                     " " + p.diag);
        }
        if (w.options.simulate &&
            (!p.simulated ||
             p.sims.size() != w.options.cacheConfigs.size()))
            res.fail(p.name + ": not simulated on every cache");
        for (const auto &sim : p.sims)
            if (sim.hits + sim.misses != sim.accesses)
                res.fail(p.name + ": hits + misses != accesses on " +
                         sim.cache);
        ProgramShape s = shapeOf(p);
        if (firstPass)
            first.push_back(std::move(s));
        else if (s.strategies != first[i].strategies ||
                 s.sims != first[i].sims)
            res.fail(p.name + ": strategies or miss counts changed "
                              "between passes");
    }
    return failed;
}

} // namespace

RunResult
timedBatch(const BatchWorkload &w, const Options &opts)
{
    RunResult res;
    const std::vector<harness::BatchInput> inputs = batchInputs(w);
    std::vector<ProgramShape> first;

    // Set-up: untimed warm-up passes.
    std::vector<double> setupS;
    for (int k = 0; k < kSetups; ++k) {
        const auto t0 = Clock::now();
        harness::BatchReport rep = harness::runBatch(inputs, w.options);
        setupS.push_back(secondsSince(t0));
        checkPass(rep, w, first, res);
    }

    uint64_t accesses = 0;
    // latency_p99_ms is the median of each pass's p99, so one host
    // stall moves one pass and not the figure; sim_large has only six
    // programs a pass, and a p99 pooled over all passes would be the
    // single slowest run of its slowest kernel.
    std::vector<double> passRate, latencyMs, passP99;
    const auto start = Clock::now();
    while (secondsSince(start) < opts.seconds || passRate.empty()) {
        const auto t0 = Clock::now();
        harness::BatchReport rep = harness::runBatch(inputs, w.options);
        const double s = secondsSince(t0);
        const uint64_t failed = checkPass(rep, w, first, res);
        res.attempted += rep.programs.size();
        res.failed += failed;
        passRate.push_back(
            static_cast<double>(rep.programs.size() - failed) / s);
        std::vector<double> passMs;
        for (const auto &p : rep.programs) {
            accesses += p.accesses;
            passMs.push_back(p.contained()
                                 ? std::numeric_limits<double>::infinity()
                                 : p.timeMs);
        }
        passP99.push_back(quantile(passMs, 0.99));
        latencyMs.insert(latencyMs.end(), passMs.begin(), passMs.end());
    }
    std::cerr << "perfbench: " << passRate.size() << " timed passes of "
              << inputs.size() << " programs, "
              << accesses / passRate.size()
              << " simulated accesses of optimized programs per pass\n";

    checkAgainstReference(w, opts.seed, res);

    res.set("setup_s", median(setupS), "s");
    res.set("programs_per_s", median(passRate), "1/s");
    res.set("latency_p50_ms", quantile(latencyMs, 0.5), "ms");
    res.set("latency_p99_ms", median(passP99), "ms");
    res.set("peak_rss_mb", peakRssMb(), "MiB");
    return res;
}

} // namespace perfbench
