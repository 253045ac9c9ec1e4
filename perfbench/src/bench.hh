/**
 * @file
 * Shared pieces of the end-to-end benchmark program: options, the
 * generated workload inputs, the metric sink, timing helpers and the
 * in-memory span recorder the traced run uses.
 *
 * The benchmark only calls memoria's public entry points. Timed runs go
 * through `harness::runBatch`; the traced run calls each layer's public
 * function itself, with a span around every call, so the program under
 * test carries no tracing.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cachesim/cache.hh"
#include "harness/batch.hh"

namespace perfbench {

namespace harness = memoria::harness;
using memoria::CacheConfig;

/** Command-line options (see run.py for the flags). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    /** Where the traced run writes its spans (JSON lines). */
    std::string traceOut;
};

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a run prints as its last line. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** First output mismatches, printed to stderr. */
    std::vector<std::string> problems;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record an output mismatch; any one fails the run. */
    void fail(const std::string &what);
};

// --- Workload inputs ---------------------------------------------------

/** A program of a closed-loop workload; `source` is set when it is
 *  passed as `.mem` text (so the frontend runs on it). */
struct BatchProgram
{
    harness::BatchInput input;
    std::string source;
};

/** The simulated geometries, in this order everywhere: i860, then
 *  rs6000. */
std::vector<CacheConfig> simCaches();

/** Inputs and settings of batch_compile or sim_large. */
struct BatchWorkload
{
    std::vector<BatchProgram> programs;
    harness::BatchOptions options;
};

/** batch_compile: kernels (n=24), corpus (extent 16) and seeded fuzz
 *  programs as `.mem` text; 2 jobs, simulation off. */
BatchWorkload batchCompileWorkload(uint64_t seed);

/** sim_large: kernels at streaming sizes; 2 jobs, simulation on for
 *  i860 and rs6000. */
BatchWorkload simLargeWorkload(uint64_t seed);

/** What `runBatch` receives. */
std::vector<harness::BatchInput> batchInputs(const BatchWorkload &w);

// --- Timing and statistics ---------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** Linear-interpolated quantile (q in [0,1]); 0 for no samples. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Deterministic 64-bit mix (splitmix64 step) for seed derivation. */
uint64_t mix(uint64_t x);

// --- Spans -------------------------------------------------------------

/**
 * In-memory span recorder. Spans nest on one thread; each records its
 * name, start, end, parent and request id. Disabled recorders make
 * `Span` a no-op, so the same code runs traced and untraced.
 */
class Tracer
{
  public:
    struct Record
    {
        const char *name;
        double startUs;
        double endUs;
        int parent;
        uint64_t requestId;
    };

    explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    int open(const char *name, uint64_t requestId);
    void close(int index);

    const std::vector<Record> &records() const { return records_; }

    /** Duration minus the time covered by direct children, per span. */
    std::vector<double> selfTimesUs() const;

    /** Write every span as one JSON line. */
    bool writeJsonl(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point t0_;
    std::vector<Record> records_;
    std::vector<int> stack_;
};

/** RAII span; records nothing when the tracer is disabled. */
class Span
{
  public:
    Span(Tracer &t, const char *name, uint64_t requestId = 0)
        : tracer_(t), index_(t.enabled() ? t.open(name, requestId) : -1)
    {
    }
    ~Span()
    {
        if (index_ >= 0)
            tracer_.close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

// --- Runs --------------------------------------------------------------

/** Timed batch run (closed loop): every end-to-end metric. */
RunResult timedBatch(const BatchWorkload &w, const Options &opts);

/** Traced run: every per-layer metric the workload's path reaches. */
RunResult tracedBatch(const BatchWorkload &w, const Options &opts);

/**
 * Reference check outside the timed region: for a seeded sample of
 * the workload's programs, the program `optimizeProgram` produces must
 * give the same array checksums as the original under the tree-walking
 * reference engine.
 */
void checkAgainstReference(const BatchWorkload &w, uint64_t seed,
                           RunResult &res);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
