#include "interp/interp.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "harness/budget.hh"
#include "harness/fault.hh"
#include "interp/tape.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {

namespace {

harness::FaultSite gInterpFault("interp.run", /*supportsDiag=*/true);

/** Poll the budget token every this many loop iterations (shared with
 *  the tape path via kInterpPollStride in interp/tape.hh). */
constexpr uint64_t kPollStride = kInterpPollStride;

/** Deterministic small integer-valued initial data. Using integers in a
 *  narrow range keeps floating-point arithmetic exact, so reordered
 *  evaluation in transformed programs cannot mask (or fake) semantic
 *  differences. The seed selects one of many such initializations for
 *  differential testing; seed 0 reproduces the historical contents. */
double
initialValue(ArrayId a, uint64_t index, uint64_t seed)
{
    uint64_t h = (static_cast<uint64_t>(a) + 1) * 0x9e3779b97f4a7c15ULL;
    h ^= (index + 1) * 0xbf58476d1ce4e5b9ULL;
    h ^= seed * 0x94d049bb133111ebULL;
    h ^= h >> 29;
    return static_cast<double>(1 + (h % 7));
}

constexpr uint64_t kBaseAddress = 0x100000;

/** Internal unwind for program-dependent faults; never escapes run().
 *  Shared with the tape engine (interp/tape.hh). */
using Fault = interp_detail::Fault;

} // namespace

const char *
interpModeName(InterpMode mode)
{
    return mode == InterpMode::Tree ? "tree" : "tape";
}

namespace {

/** Mark every array id a statement tree references (writes, loads,
 *  and loads inside opaque subscripts). Shared Value spines may be
 *  visited more than once; the walk is idempotent and the IR is small
 *  next to the data it would otherwise force us to initialize. */
void
markRefArrays(const ArrayRef &ref, std::vector<uint8_t> &mark);

void
markValueArrays(const ValuePtr &v, std::vector<uint8_t> &mark)
{
    if (!v)
        return;
    if (v->op == ValOp::Load)
        markRefArrays(v->load, mark);
    for (const ValuePtr &kid : v->kids)
        markValueArrays(kid, mark);
}

void
markRefArrays(const ArrayRef &ref, std::vector<uint8_t> &mark)
{
    if (ref.array >= 0 && static_cast<size_t>(ref.array) < mark.size())
        mark[ref.array] = 1;
    for (const Subscript &s : ref.subs)
        if (!s.isAffine())
            markValueArrays(s.opaque, mark);
}

void
markNodeArrays(const Node &n, std::vector<uint8_t> &mark)
{
    if (n.isStmt()) {
        markRefArrays(n.stmt.write, mark);
        markValueArrays(n.stmt.rhs, mark);
        return;
    }
    for (const NodePtr &kid : n.body)
        markNodeArrays(*kid, mark);
}

} // namespace

Interpreter::Interpreter(const Program &prog)
    : prog_(prog)
{
    env_.assign(prog_.vars.size(), 0);
    for (size_t v = 0; v < prog_.vars.size(); ++v)
        if (prog_.vars[v].kind == VarKind::Param)
            env_[v] = prog_.vars[v].paramValue;

    const size_t n = prog_.arrays.size();
    data_.resize(n);
    filled_.assign(n, 0);
    bases_.assign(n, 0);
    extentOff_.resize(n + 1);
    uint32_t off = 0;
    for (size_t a = 0; a < n; ++a) {
        extentOff_[a] = off;
        off += static_cast<uint32_t>(prog_.arrays[a].extents.size());
    }
    extentOff_[n] = off;
    extentPool_.assign(off, 0);

    referenced_.assign(n, 0);
    for (const NodePtr &node : prog_.body)
        markNodeArrays(*node, referenced_);

    allocate();
}

Interpreter::~Interpreter() = default;

void
Interpreter::setMode(InterpMode mode)
{
    MEMORIA_ASSERT(!ran_, "setMode after run");
    mode_ = mode;
}

const Tape &
Interpreter::compiledTape()
{
    MEMORIA_ASSERT(!allocError_, "compiledTape with allocation error");
    if (!tape_) {
        ensureReferenced();  // the tape binds raw data pointers
        tape_ = std::make_unique<Tape>(prog_, *this);
    }
    return *tape_;
}

Status
Interpreter::setParam(const std::string &name, int64_t value)
{
    MEMORIA_ASSERT(!ran_, "setParam after run");
    for (size_t v = 0; v < prog_.vars.size(); ++v) {
        if (prog_.vars[v].kind == VarKind::Param &&
            prog_.vars[v].name == name) {
            env_[v] = value;
            allocate();
            if (allocError_)
                return Status::err(*allocError_);
            return Status{};
        }
    }
    return Status::err(
        Diag::error("interp.param", "unknown parameter '" + name + "'"));
}

void
Interpreter::setInitSeed(uint64_t seed)
{
    MEMORIA_ASSERT(!ran_, "setInitSeed after run");
    initSeed_ = seed;
    // The seed changes array contents only; extents, bases and the
    // allocation error stand. Arrays refill lazily from the new seed,
    // and the tape, which binds their buffers, is recompiled.
    std::fill(filled_.begin(), filled_.end(), 0);
    tape_.reset();
}

/**
 * Recompute the binding: concrete extents, virtual base addresses and
 * the deferred allocation error. Array contents are NOT filled here —
 * they materialize lazily (ensureArray) so the repeated rebinding the
 * equivalence oracle performs (construct, then setParam per parameter)
 * costs extent arithmetic, not a full data refill each time. An array
 * whose extents are unchanged keeps its filled data.
 */
void
Interpreter::allocate()
{
    allocError_.reset();
    tape_.reset();  // the compiled binding is stale
    uint64_t next = kBaseAddress;
    for (size_t a = 0; a < prog_.arrays.size(); ++a) {
        const ArrayDecl &decl = prog_.arrays[a];
        int64_t *ext = extentPool_.data() + extentOff_[a];
        uint64_t elems = 1;
        bool changed = false;
        for (size_t k = 0; k < decl.extents.size(); ++k) {
            int64_t x = evalAffine(decl.extents[k]);
            if (x <= 0) {
                allocError_ = Diag::error(
                    "interp.extent", "non-positive extent " +
                                         std::to_string(x) +
                                         " for array " + decl.name);
                std::fill(filled_.begin(), filled_.end(), 0);
                return;
            }
            if (ext[k] != x) {
                ext[k] = x;
                changed = true;
            }
            elems *= static_cast<uint64_t>(x);
        }
        if (changed)
            filled_[a] = 0;
        bases_[a] = next;
        next += elems * decl.elemSize;
    }
}

uint64_t
Interpreter::arrayElems(ArrayId a) const
{
    MEMORIA_ASSERT(a >= 0 && static_cast<size_t>(a) < data_.size(),
                   "arrayElems out of range");
    const int64_t *ext = extentsOf(a);
    uint64_t elems = 1;
    for (int k = 0; k < rankOf(a); ++k)
        elems *= static_cast<uint64_t>(ext[k]);
    return elems;
}

void
Interpreter::ensureArray(ArrayId a) const
{
    if (filled_[a])
        return;
    MEMORIA_ASSERT(!allocError_, "ensureArray with allocation error");
    uint64_t elems = arrayElems(a);
    std::vector<double> &buf = data_[a];
    buf.resize(elems);
    for (uint64_t i = 0; i < elems; ++i)
        buf[i] = initialValue(a, i, initSeed_);
    filled_[a] = 1;
}

void
Interpreter::ensureReferenced() const
{
    for (size_t a = 0; a < referenced_.size(); ++a)
        if (referenced_[a])
            ensureArray(static_cast<ArrayId>(a));
}

/** The enclosing-loop iteration snapshot, e.g. " in DO I=3, DO J=5". */
std::string
Interpreter::loopContext() const
{
    std::string s;
    for (VarId v : loopStack_)
        s += (s.empty() ? " in DO " : ", DO ") + prog_.varName(v) + "=" +
             std::to_string(env_[v]);
    if (curStmt_ >= 0)
        s += " (statement " + std::to_string(curStmt_) + ")";
    return s;
}

void
Interpreter::fault(std::string code, std::string msg) const
{
    throw Fault{Diag::error(std::move(code), msg + loopContext())};
}

int64_t
Interpreter::evalAffine(const AffineExpr &e) const
{
    return e.eval([this](VarId v) { return env_[v]; });
}

int64_t
Interpreter::paramValue(VarId v) const
{
    MEMORIA_ASSERT(prog_.varInfo(v).kind == VarKind::Param,
                   "paramValue of a loop variable");
    return env_[v];
}

uint64_t
Interpreter::elementIndex(const ArrayRef &ref, BatchingListener *out)
{
    if (ref.array < 0 ||
        static_cast<size_t>(ref.array) >= data_.size())
        fault("interp.array",
              "reference to out-of-range array id " +
                  std::to_string(ref.array));
    const int64_t *ext = extentsOf(ref.array);
    const size_t rank = static_cast<size_t>(rankOf(ref.array));
    if (ref.subs.size() != rank)
        fault("interp.rank",
              "rank " + std::to_string(ref.subs.size()) +
                  " reference to rank " + std::to_string(rank) +
                  " array " + prog_.arrayDecl(ref.array).name);
    uint64_t index = 0;
    uint64_t stride = 1;
    for (size_t k = 0; k < ref.subs.size(); ++k) {
        int64_t s;
        if (ref.subs[k].isAffine())
            s = evalAffine(ref.subs[k].affine);
        else
            s = std::llround(evalValue(ref.subs[k].opaque, out));
        if (s < 1 || s > ext[k])
            fault("interp.oob",
                  "subscript " + std::to_string(k + 1) + " = " +
                      std::to_string(s) + " out of bounds 1.." +
                      std::to_string(ext[k]) + " on array " +
                      prog_.arrayDecl(ref.array).name);
        index += static_cast<uint64_t>(s - 1) * stride;
        stride *= static_cast<uint64_t>(ext[k]);
    }
    return index;
}

double
Interpreter::evalValue(const ValuePtr &v, BatchingListener *out)
{
    MEMORIA_ASSERT(v != nullptr, "null value");
    switch (v->op) {
      case ValOp::Const:
        return v->constant;
      case ValOp::Index:
        return static_cast<double>(evalAffine(v->index));
      case ValOp::Load: {
        uint64_t idx = elementIndex(v->load, out);
        const ArrayDecl &decl = prog_.arrayDecl(v->load.array);
        if (!decl.isRegister) {
            ++stats_.memRefs;
            if (out)
                out->access(bases_[v->load.array] + idx * decl.elemSize,
                            decl.elemSize, false);
        }
        return data_[v->load.array][idx];
      }
      case ValOp::Neg:
        return -evalValue(v->kids[0], out);
      case ValOp::Sqrt:
        return std::sqrt(evalValue(v->kids[0], out));
      default:
        break;
    }
    // Binary ops. C++ leaves the evaluation order of operands and call
    // arguments unspecified, so sequence kids[0] (and its loads)
    // before kids[1] explicitly — the tape's order.
    double lhs = evalValue(v->kids[0], out);
    double rhs = evalValue(v->kids[1], out);
    switch (v->op) {
      case ValOp::Add:
        return lhs + rhs;
      case ValOp::Sub:
        return lhs - rhs;
      case ValOp::Mul:
        return lhs * rhs;
      case ValOp::Div:
        return lhs / rhs;
      case ValOp::Min:
        return std::min(lhs, rhs);
      case ValOp::Max:
        return std::max(lhs, rhs);
      case ValOp::IMod: {
        int64_t a = std::llround(lhs);
        int64_t b = std::llround(rhs);
        if (b == 0)
            fault("interp.mod_zero", "MOD by zero");
        int64_t m = a % b;
        if (m < 0)
            m += std::abs(b);
        return static_cast<double>(m);
      }
      default:
        break;
    }
    panic("unhandled value op");
}

void
Interpreter::execStmt(const Statement &s, BatchingListener *out)
{
    curStmt_ = s.id;
    double value = evalValue(s.rhs, out);
    uint64_t idx = elementIndex(s.write, out);
    const ArrayDecl &decl = prog_.arrayDecl(s.write.array);
    if (!decl.isRegister) {
        ++stats_.memRefs;
        if (out)
            out->access(bases_[s.write.array] + idx * decl.elemSize,
                        decl.elemSize, true);
    }
    data_[s.write.array][idx] = value;
    ++stats_.stmtsExecuted;
}

void
Interpreter::execNode(const Node &n, BatchingListener *out)
{
    if (n.isStmt()) {
        execStmt(n.stmt, out);
        return;
    }
    if (n.step == 0)
        fault("interp.step",
              "loop over '" + prog_.varName(n.var) + "' has step 0");
    loopStack_.push_back(n.var);
    int64_t lb = evalAffine(n.lb);
    int64_t ub = evalAffine(n.ub);
    if (n.step > 0) {
        for (int64_t v = lb; v <= ub; v += n.step) {
            if ((++stats_.loopIterations & (kPollStride - 1)) == 0)
                harness::chargeIterations(kPollStride, "interp.loop");
            env_[n.var] = v;
            for (const auto &kid : n.body)
                execNode(*kid, out);
        }
    } else {
        for (int64_t v = lb; v >= ub; v += n.step) {
            if ((++stats_.loopIterations & (kPollStride - 1)) == 0)
                harness::chargeIterations(kPollStride, "interp.loop");
            env_[n.var] = v;
            for (const auto &kid : n.body)
                execNode(*kid, out);
        }
    }
    loopStack_.pop_back();
}

Status
Interpreter::run(AccessBatchSink *sink)
{
    obs::TraceScope span("interp", "run");
    span.arg("program", prog_.name);

    ran_ = true;
    if (std::optional<Diag> injected = gInterpFault.fire()) {
        ++obs::counter("interp.faults");
        return Status::err(*injected);
    }
    if (allocError_) {
        ++obs::counter("interp.faults");
        return Status::err(*allocError_);
    }

    ensureReferenced();

    Status st;
    if (mode_ == InterpMode::Tape) {
        if (!tape_)
            tape_ = std::make_unique<Tape>(prog_, *this);
        try {
            tape_->run(*this, sink);
        } catch (const Fault &f) {
            st = Status::err(f.diag);
        }
    } else {
        // Tree walker, the differential reference for the tape: it
        // appends through the buffering adapter.
        std::optional<BatchingListener> batcher;
        if (sink)
            batcher.emplace(*sink);
        try {
            for (const auto &n : prog_.body)
                execNode(*n, batcher ? &*batcher : nullptr);
        } catch (const Fault &f) {
            st = Status::err(f.diag);
        }
        // Flush the trailing partial batch, also after a fault; a
        // cancellation has already propagated past us, unflushed,
        // matching the historical behaviour.
        if (batcher)
            batcher->flush();
    }

    if (!st.ok()) {
        ++obs::counter("interp.faults");
        if (span.active())
            span.arg("fault", st.diag().str());
        return st;
    }

    // Publish aggregates once per run: the per-iteration path stays a
    // plain member increment.
    static obs::Counter &cRuns = obs::counter("interp.runs");
    static obs::Counter &cIters = obs::counter("interp.loop_iterations");
    static obs::Counter &cStmts = obs::counter("interp.stmts_executed");
    static obs::Counter &cRefs = obs::counter("interp.mem_refs");
    ++cRuns;
    cIters += stats_.loopIterations;
    cStmts += stats_.stmtsExecuted;
    cRefs += stats_.memRefs;

    if (span.active()) {
        span.arg("loop_iterations", stats_.loopIterations);
        span.arg("stmts_executed", stats_.stmtsExecuted);
        span.arg("mem_refs", stats_.memRefs);
    }
    return Status{};
}

const std::vector<double> &
Interpreter::arrayData(ArrayId a) const
{
    MEMORIA_ASSERT(a >= 0 && static_cast<size_t>(a) < data_.size(),
                   "arrayData out of range");
    ensureArray(a);
    return data_[a];
}

uint64_t
Interpreter::checksum() const
{
    return checksumFirstArrays(data_.size());
}

uint64_t
Interpreter::checksumFirstArrays(size_t count) const
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t a = 0; a < count && a < data_.size(); ++a) {
        ensureArray(static_cast<ArrayId>(a));
        const auto &arr = data_[a];
        for (double d : arr) {
            uint64_t bits;
            static_assert(sizeof(bits) == sizeof(d));
            std::memcpy(&bits, &d, sizeof(bits));
            for (int b = 0; b < 8; ++b) {
                h ^= (bits >> (8 * b)) & 0xff;
                h *= 0x100000001b3ULL;
            }
        }
    }
    return h;
}

RunResult
runWithCache(const Program &prog, const CacheConfig &config,
             const MachineModel &machine)
{
    Result<RunResult> r = tryRunWithCache(prog, config, machine);
    MEMORIA_ASSERT(r.ok(), "runWithCache on faulting program: "
                               << r.diag().str());
    return r.value();
}

Result<RunResult>
tryRunWithCache(const Program &prog, const CacheConfig &config,
                const MachineModel &machine)
{
    Result<SweepResult> sweep = tryRunWithCaches(prog, {config}, machine);
    if (!sweep.ok())
        return Result<RunResult>::err(sweep.diag());
    RunResult r;
    r.exec = sweep.value().exec;
    r.cache = sweep.value().cache.front();
    r.cycles = sweep.value().cycles.front();
    r.checksum = sweep.value().checksum;
    return r;
}

SweepResult
runWithCaches(const Program &prog,
              const std::vector<CacheConfig> &configs,
              const MachineModel &machine)
{
    Result<SweepResult> r = tryRunWithCaches(prog, configs, machine);
    MEMORIA_ASSERT(r.ok(), "runWithCaches on faulting program: "
                               << r.diag().str());
    return r.value();
}

Result<SweepResult>
tryRunWithCaches(const Program &prog,
                 const std::vector<CacheConfig> &configs,
                 const MachineModel &machine)
{
    obs::TraceScope span("interp", "run_with_caches");
    span.arg("program", prog.name);
    span.arg("configs", static_cast<uint64_t>(configs.size()));

    // The tape runs on this thread while a second one, if a core is
    // spare, probes the caches (cachesim/sweep.hh). A CancelledError
    // unwinding out of run() stops and joins the consumer in
    // ~PipelinedSweep.
    Interpreter interp(prog);
    MultiCacheSim sim(configs);
    PipelinedSweep pipe(sim);
    Status st = interp.run(&pipe);
    uint64_t checksum = 0;
    if (st.ok())
        checksum = interp.checksum();  // overlaps the consumer's backlog
    pipe.drain();
    if (!st.ok()) {
        if (span.active())
            span.arg("fault", st.diag().str());
        return Result<SweepResult>::err(st.diag());
    }

    static obs::Counter &cSweeps = obs::counter("interp.sweep_runs");
    static obs::Counter &cConfigs = obs::counter("interp.sweep_configs");
    ++cSweeps;
    cConfigs += configs.size();

    SweepResult r;
    r.exec = interp.stats();
    r.checksum = checksum;
    r.cache.reserve(configs.size());
    r.cycles.reserve(configs.size());
    for (size_t i = 0; i < sim.configCount(); ++i) {
        sim.cache(i).publishStats();
        const CacheStats &cs = sim.stats(i);
        cs.checkConsistent();
        r.cache.push_back(cs);
        r.cycles.push_back(machine.cyclesPerStmt * r.exec.stmtsExecuted +
                           machine.cyclesPerRef * r.exec.memRefs +
                           machine.missPenalty * cs.misses);
    }
    if (span.active()) {
        span.arg("mem_refs", r.exec.memRefs);
        for (size_t i = 0; i < r.cache.size(); ++i)
            span.arg("misses_" + std::to_string(i), r.cache[i].misses);
    }
    return r;
}

uint64_t
runChecksum(const Program &prog)
{
    Result<uint64_t> r = tryRunChecksum(prog);
    MEMORIA_ASSERT(r.ok(), "runChecksum on faulting program: "
                               << r.diag().str());
    return r.value();
}

Result<uint64_t>
tryRunChecksum(const Program &prog)
{
    Interpreter interp(prog);
    Status st = interp.run(nullptr);
    if (!st.ok())
        return Result<uint64_t>::err(st.diag());
    return interp.checksum();
}

} // namespace memoria
