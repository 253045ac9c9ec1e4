/**
 * @file
 * Interpreter for the loop-nest IR.
 *
 * Executes a Program over real column-major arrays, streaming every
 * scalar memory access in batches to an optional AccessBatchSink
 * (typically the cache sweep, cachesim/sweep.hh). Execution runs on the
 * bytecode tape (interp/tape.hh), compiled straight from the tree IR
 * once per binding; the tree walker kept here is its differential
 * reference. The interpreter serves three purposes:
 *
 *  1. semantic validation — the test suite requires transformed
 *     programs to produce bit-identical array contents;
 *  2. cache-hit-rate measurement for the paper's Table 4;
 *  3. a simple cycle model (statement cost + miss penalty) standing in
 *     for the paper's wall-clock numbers in Tables 1 and 3.
 */

#ifndef MEMORIA_SRC_INTERP_INTERP_HH
#define MEMORIA_SRC_INTERP_INTERP_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cachesim/cache.hh"
#include "cachesim/sweep.hh"
#include "check/diag.hh"
#include "ir/program.hh"

namespace memoria {

class Tape;

/**
 * Interpreter execution engine. `Tape`, the only engine production
 * runs, compiles each program binding once into a flat bytecode tape
 * (interp/tape.hh) and dispatches over it. `Tree` walks the
 * pointer-based IR directly; it is the differential reference, reached
 * only through Interpreter::setMode. Both produce bit-identical results
 * — array contents, ExecStats, access streams, Diags — which
 * Tape.SweepParityAcrossModes (tests/test_interp_tape.cc) enforces.
 */
enum class InterpMode
{
    Tree,
    Tape,
};

/** "tree" or "tape". */
const char *interpModeName(InterpMode mode);

/** Execution counters. */
struct ExecStats
{
    uint64_t stmtsExecuted = 0;
    uint64_t memRefs = 0;
    uint64_t loopIterations = 0;
};

/** Crude latency model for simulated "performance" numbers. */
struct MachineModel
{
    double cyclesPerStmt = 1.0;
    double cyclesPerRef = 1.0;
    double missPenalty = 16.0;
};

/** Executes one program binding. */
class Interpreter
{
  public:
    explicit Interpreter(const Program &prog);
    ~Interpreter();

    /** Select the execution engine for this instance (before run());
     *  new instances run the tape. */
    void setMode(InterpMode mode);
    InterpMode mode() const { return mode_; }

    /** Override a parameter value before running (by name). Unknown
     *  names and non-positive resulting extents report a Diag. */
    Status setParam(const std::string &name, int64_t value);

    /** Re-seed the deterministic initial array contents (differential
     *  testing runs the same program pair under several
     *  initializations). The binding — extents, bases, allocation
     *  error — is unchanged; the arrays refill from the new seed on
     *  first use. */
    void setInitSeed(uint64_t seed);

    /**
     * Execute the whole program, delivering accesses to `sink` (null
     * for none) in batches (cachesim/sweep.hh). The trailing partial
     * batch is flushed even when the run faults, so the sink always
     * sees the stream up to the fault.
     *
     * Program-dependent faults — out-of-bounds subscripts, rank
     * mismatches, MOD by zero — stop execution and come back as a
     * Diag; they are properties of the *input*, not internal bugs, so
     * they must not terminate the process (docs/ROBUSTNESS.md).
     */
    Status run(AccessBatchSink *sink = nullptr);

    /** Same as run(sink). */
    Status runBatched(AccessBatchSink *sink) { return run(sink); }

    /** Raw data of one array (valid after construction). Contents are
     *  materialized lazily; the first read fills the buffer with the
     *  deterministic seeded initial values. */
    const std::vector<double> &arrayData(ArrayId a) const;

    /** Element count of one array under the current binding, without
     *  materializing its contents. */
    uint64_t arrayElems(ArrayId a) const;

    /** FNV-1a checksum over the bit patterns of every array. */
    uint64_t checksum() const;

    /** Checksum restricted to the first `count` arrays — lets callers
     *  compare programs that differ only by appended register
     *  temporaries (scalar replacement, unroll-and-jam). */
    uint64_t checksumFirstArrays(size_t count) const;

    const ExecStats &stats() const { return stats_; }

    /** Bound value of a parameter. */
    int64_t paramValue(VarId v) const;

    /** Virtual base address of an array. */
    uint64_t arrayBase(ArrayId a) const { return bases_.at(a); }

    /** The compiled tape for the current binding (tape mode only;
     *  compiled lazily on first run). Exposed for the disassembly
     *  golden test. */
    const Tape &compiledTape();

  private:
    friend class Tape;

    void allocate();
    void ensureArray(ArrayId a) const;
    void ensureReferenced() const;
    const int64_t *extentsOf(ArrayId a) const
    {
        return extentPool_.data() + extentOff_[a];
    }
    int rankOf(ArrayId a) const
    {
        return static_cast<int>(extentOff_[a + 1] - extentOff_[a]);
    }
    void execNode(const Node &n, BatchingListener *out);
    void execStmt(const Statement &s, BatchingListener *out);
    double evalValue(const ValuePtr &v, BatchingListener *out);
    int64_t evalAffine(const AffineExpr &e) const;
    uint64_t elementIndex(const ArrayRef &ref, BatchingListener *out);
    [[noreturn]] void fault(std::string code, std::string msg) const;
    std::string loopContext() const;

    const Program &prog_;
    std::vector<int64_t> env_;            ///< VarId -> current value
    /**
     * Array contents, filled lazily (mutable: reads through the const
     * accessors materialize on demand). A verification pass touches a
     * handful of a program's arrays; eagerly hashing initial values
     * into every buffer on construction, after every setParam and
     * again after setInitSeed dominated the equivalence oracle.
     */
    mutable std::vector<std::vector<double>> data_;
    mutable std::vector<uint8_t> filled_; ///< per-array fill flag
    std::vector<uint8_t> referenced_;     ///< arrays the body touches
    std::vector<uint64_t> bases_;
    /** Concrete extents, flattened: array `a` owns
     *  extentPool_[extentOff_[a] .. extentOff_[a+1]). Ranks are fixed
     *  by the declaration, so offsets are computed once. */
    std::vector<int64_t> extentPool_;
    std::vector<uint32_t> extentOff_;
    ExecStats stats_;
    uint64_t initSeed_ = 0;
    std::optional<Diag> allocError_;      ///< deferred allocation fault
    std::vector<VarId> loopStack_;        ///< active loops, outer first
    int curStmt_ = -1;                    ///< executing statement id
    bool ran_ = false;
    InterpMode mode_ = InterpMode::Tape;
    std::unique_ptr<Tape> tape_;          ///< lazily compiled binding
};

/** Result of one simulated execution against a cache. */
struct RunResult
{
    ExecStats exec;
    CacheStats cache;
    double cycles = 0.0;
    uint64_t checksum = 0;
};

/** Run a program against one cache configuration (a one-config
 *  runWithCaches). Panics on a program fault; use tryRunWithCache for
 *  untrusted programs. */
RunResult runWithCache(const Program &prog, const CacheConfig &config,
                       const MachineModel &machine = MachineModel{});

/** Checked variant: a faulting program reports a Diag instead. The
 *  batch driver uses this so one bad program cannot abort the pool. */
Result<RunResult> tryRunWithCache(
    const Program &prog, const CacheConfig &config,
    const MachineModel &machine = MachineModel{});

/** Result of one execution simulated against several caches at once. */
struct SweepResult
{
    ExecStats exec;
    /** Per-config counters, parallel to the `configs` argument. */
    std::vector<CacheStats> cache;
    /** Per-config modeled cycles, parallel to `configs`. */
    std::vector<double> cycles;
    uint64_t checksum = 0;
};

/**
 * Run a program once and simulate every configuration in `configs`
 * from that single interpreter pass (cachesim/sweep.hh). Counters are
 * identical to standalone per-config simulations; the interpreter
 * executes once instead of N times, and given a spare core a stream of
 * at least one batch is probed on a second thread while the
 * interpreter runs (PipelinedSweep). Panics on a program fault; use tryRunWithCaches
 * for untrusted programs.
 */
SweepResult runWithCaches(const Program &prog,
                          const std::vector<CacheConfig> &configs,
                          const MachineModel &machine = MachineModel{});

/** Checked variant: a faulting program reports a Diag instead. */
Result<SweepResult> tryRunWithCaches(
    const Program &prog, const std::vector<CacheConfig> &configs,
    const MachineModel &machine = MachineModel{});

/** Run without a cache, for semantics checks only. Panics on a
 *  program fault; use tryRunChecksum for untrusted programs. */
uint64_t runChecksum(const Program &prog);

/** Checked variant: a faulting program reports a Diag instead. */
Result<uint64_t> tryRunChecksum(const Program &prog);

} // namespace memoria

#endif // MEMORIA_SRC_INTERP_INTERP_HH
