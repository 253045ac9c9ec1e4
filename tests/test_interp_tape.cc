/**
 * Unit tests for the bytecode tape interpreter (interp/tape.hh): golden
 * disassemblies of the all-fast and the guarded compile paths, and
 * tree/tape parity on faults, budgets, cancellation and access
 * streams. Tape.SweepParityAcrossModes is the differential gate between
 * the two engines: every kernel, every corpus program and 500 fuzz
 * programs, raw and Compound-transformed. The jobs-determinism tests
 * pin down the parallel oracle and fuzz campaign contracts (identical
 * output for every jobs value).
 */

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/equiv.hh"
#include "check/fuzz.hh"
#include "driver/fuzzcheck.hh"
#include "harness/budget.hh"
#include "interp/interp.hh"
#include "interp/tape.hh"
#include "ir/builder.hh"
#include "recording_sink.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"

namespace memoria {
namespace {

TEST(Tape, GoldenMatmulDisassembly)
{
    // The Figure 2 matmul nest in memory order (JKI), N=4: three
    // counted loops, four strength-reduced fast references (strides
    // folded into one affine per reference), no guards — interval
    // analysis proves every subscript in bounds. A change here means
    // the compiler's output changed; update deliberately.
    Program p = makeMatmul("JKI", 4);
    Interpreter interp(p);
    const Tape &tape = interp.compiledTape();
    EXPECT_EQ(tape.disassemble(),
              "tape 'matmul_JKI': 13 instrs, 3 loops, 4 fast refs, "
              "0 guarded refs\n"
              "  0: loop.begin J = <1> .. <N> step 1 end@11\n"
              "  1: loop.begin K = <1> .. <N> step 1 end@10\n"
              "  2: loop.begin I = <1> .. <N> step 1 end@9\n"
              "  3: load.fast C[<I + 4*J - 5>]\n"
              "  4: load.fast A[<I + 4*K - 5>]\n"
              "  5: load.fast B[<4*J + K - 5>]\n"
              "  6: mul\n"
              "  7: add\n"
              "  8: store.fast C[<I + 4*J - 5>]\n"
              "  9: loop.end I body@3\n"
              " 10: loop.end K body@2\n"
              " 11: loop.end J body@1\n"
              " 12: halt\n");
    EXPECT_EQ(tape.fastRefs(), 4);
    EXPECT_EQ(tape.guardedRefs(), 0);
}

/** Every guarded compile decision in one nest, N=4:
 *    DO I = 1, N
 *      DO J = I, N
 *        A(J-I+1, I) = X([IND(I)]) + A(I, J)
 *      T = X(I) * 2        (spine S = X(I) * 2)
 *      IND(I) = S + T      (S shared with the statement above)
 *      X(I, I) = S         (rank mismatch)
 *  J-I+1 is in bounds at run time but its interval [2-N, N] is not, so
 *  A's store checks dimension 1 and proves dimension 2; X([IND(I)])
 *  has an opaque subscript; T is a REGISTER scalar. */
Program
makeGuardedProgram()
{
    ProgramBuilder b("guarded");
    Var n = b.param("N", 4);
    Arr a = b.array("A", {n, n});
    Arr x = b.array("X", {n});
    Arr ind = b.array("IND", {n});
    Arr t = b.scalar("T");
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    Val s = Val(x(i)) * 2.0;
    b.add(b.loop(
        i, 1, n,
        b.loop(j, i, n,
               b.assign(a(Ix(j) - i + 1, i),
                        Val(x.at({opaqueSub(ind(i))})) + a(i, j))),
        b.assign(t(), s), b.assign(ind(i), s + t()),
        b.assign(x(i, i), s)));
    return b.finish();
}

TEST(Tape, GoldenGuardedDisassembly)
{
    // The guarded path: per-dimension checked and proven affine dims,
    // an opaque dim, load.end/store.end, register traffic, a static
    // rank fault, and a shared Value spine compiled once per use. A
    // change here means the compiler's output changed; update
    // deliberately.
    Program p = makeGuardedProgram();
    Interpreter interp(p);
    const Tape &tape = interp.compiledTape();
    EXPECT_EQ(tape.disassemble(),
              "tape 'guarded': 29 instrs, 2 loops, 8 fast refs, "
              "2 guarded refs\n"
              "  0: loop.begin I = <1> .. <N> step 1 end@27\n"
              "  1: loop.begin J = <I> .. <N> step 1 end@12\n"
              "  2: ref.begin\n"
              "  3: load.fast IND[<I - 1>]\n"
              "  4: dim.opaque X#1 stride 1 check 1..4\n"
              "  5: load.end X\n"
              "  6: load.fast A[<I + 4*J - 5>]\n"
              "  7: add\n"
              "  8: ref.begin\n"
              "  9: dim.affine A#1 <-I + J + 1> stride 1 check 1..4\n"
              " 10: dim.affine A#2 <I> stride 4 proven 1..4\n"
              " 11: store.end A\n"
              " 12: loop.end J body@2\n"
              " 13: load.fast X[<I - 1>]\n"
              " 14: push.const 2\n"
              " 15: mul\n"
              " 16: store.fast T[<0>] reg\n"
              " 17: load.fast X[<I - 1>]\n"
              " 18: push.const 2\n"
              " 19: mul\n"
              " 20: load.fast T[<0>] reg\n"
              " 21: add\n"
              " 22: store.fast IND[<I - 1>]\n"
              " 23: load.fast X[<I - 1>]\n"
              " 24: push.const 2\n"
              " 25: mul\n"
              " 26: fault interp.rank \"rank 2 reference to rank 1 "
              "array X\"\n"
              " 27: loop.end I body@1\n"
              " 28: halt\n");
    EXPECT_EQ(tape.fastRefs(), 8);
    EXPECT_EQ(tape.guardedRefs(), 2);
}

/** A(I+1) over A(N): out of bounds on the last iteration. */
Program
makeOobProgram()
{
    ProgramBuilder b("oob");
    Var n = b.param("N", 6);
    Arr a = b.array("A", {n});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n, b.assign(a(Ix(i) + 1), Val(i))));
    return b.finish();
}

TEST(Tape, OutOfBoundsParity)
{
    // The tape compiles the reference guarded (it cannot prove I+1 in
    // bounds) and must reproduce the tree walker's fault exactly:
    // same code, same message, same counters up to the fault.
    Program p = makeOobProgram();

    Interpreter tree(p);
    tree.setMode(InterpMode::Tree);
    Status ts = tree.run();
    ASSERT_FALSE(ts.ok());

    Interpreter tape(p);
    tape.setMode(InterpMode::Tape);
    EXPECT_GT(tape.compiledTape().guardedRefs(), 0);
    Status as = tape.run();
    ASSERT_FALSE(as.ok());

    EXPECT_EQ(ts.diag().str(), as.diag().str());
    EXPECT_EQ(tree.stats().stmtsExecuted, tape.stats().stmtsExecuted);
    EXPECT_EQ(tree.stats().memRefs, tape.stats().memRefs);
    EXPECT_EQ(tree.stats().loopIterations, tape.stats().loopIterations);
    EXPECT_EQ(tree.checksum(), tape.checksum());
}

TEST(Tape, ModZeroParity)
{
    // I MOD (I - I) faults at runtime; both engines must agree on the
    // diagnostic and on how much executed before it.
    ProgramBuilder b("modzero");
    Var n = b.param("N", 4);
    Arr a = b.array("A", {n});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n,
                 b.assign(a(i), imodv(Val(i), Val(i) - Val(i)))));
    Program p = b.finish();

    Interpreter tree(p);
    tree.setMode(InterpMode::Tree);
    Status ts = tree.run();
    ASSERT_FALSE(ts.ok());

    Interpreter tape(p);
    tape.setMode(InterpMode::Tape);
    Status as = tape.run();
    ASSERT_FALSE(as.ok());

    EXPECT_EQ(ts.diag().str(), as.diag().str());
    EXPECT_EQ(tree.stats().stmtsExecuted, tape.stats().stmtsExecuted);
}

/** One engine's run of a program: whether it finished, its access
 *  stream and the number of references it counted. */
struct Recorded
{
    bool ok = false;
    std::vector<AccessRecord> stream;
    uint64_t memRefs = 0;
};

Recorded
record(const Program &p, InterpMode mode)
{
    Interpreter interp(p);
    interp.setMode(mode);
    RecordingSink sink;
    bool ok = interp.run(&sink).ok();
    return {ok, std::move(sink.records), interp.stats().memRefs};
}

/** Record-by-record comparison of the two engines' streams. */
void
expectSameStream(const std::vector<AccessRecord> &tree,
                 const std::vector<AccessRecord> &tape)
{
    ASSERT_EQ(tree.size(), tape.size());
    for (size_t i = 0; i < tree.size(); ++i) {
        EXPECT_EQ(tree[i].addr, tape[i].addr) << "record " << i;
        EXPECT_EQ(tree[i].size, tape[i].size) << "record " << i;
        EXPECT_EQ(tree[i].isWrite, tape[i].isWrite) << "record " << i;
    }
}

TEST(Tape, StreamParityOnMinMaxOperands)
{
    // C(I) = MAX(A(I), MIN(B(I), 4)): both engines must load A before
    // B. The tape compiles kids[0] first; the tree walker once passed
    // both operands straight to std::max/std::min, whose argument
    // evaluation order C++ leaves unspecified (GCC goes right to left).
    ProgramBuilder b("minmax");
    Var n = b.param("N", 6);
    Arr a = b.array("A", {n});
    Arr bb = b.array("B", {n});
    Arr c = b.array("C", {n});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n,
                 b.assign(c(i), maxv(a(i), minv(bb(i), Val(4))))));
    Program p = b.finish();

    Recorded tree = record(p, InterpMode::Tree);
    Recorded tape = record(p, InterpMode::Tape);
    EXPECT_TRUE(tree.ok);
    EXPECT_TRUE(tape.ok);
    ASSERT_EQ(tape.stream.size(), 18u);  // 6 x (load A, load B, store C)
    Interpreter layout(p);
    EXPECT_EQ(tape.stream[0].addr, layout.arrayBase(0));
    EXPECT_EQ(tape.stream[1].addr, layout.arrayBase(1));
    expectSameStream(tree.stream, tape.stream);
}

TEST(Tape, StreamParityUpToFault)
{
    // The stream up to an out-of-bounds fault matches, and it is
    // complete: the trailing partial batch is flushed on the fault, so
    // every counted reference reaches the sink.
    Program p = makeOobProgram();
    Recorded tree = record(p, InterpMode::Tree);
    Recorded tape = record(p, InterpMode::Tape);
    EXPECT_FALSE(tree.ok);
    EXPECT_FALSE(tape.ok);
    EXPECT_GT(tape.stream.size(), 0u);
    EXPECT_EQ(tree.stream.size(), tree.memRefs);
    EXPECT_EQ(tape.stream.size(), tape.memRefs);
    expectSameStream(tree.stream, tape.stream);
}

/** Run `p` in `mode` under an iteration budget; returns the cancel
 *  kind (or nullopt if the run finished) and the iterations charged. */
std::pair<std::optional<harness::CancelKind>, uint64_t>
runUnderBudget(const Program &p, InterpMode mode, uint64_t maxIters)
{
    harness::Budget budget;
    budget.maxInterpIterations = maxIters;
    harness::CancelToken token(budget);
    harness::BudgetScope scope(&token);
    Interpreter interp(p);
    interp.setMode(mode);
    try {
        interp.run();
    } catch (const harness::CancelledError &e) {
        return {e.kind, token.iterationsUsed()};
    }
    return {std::nullopt, token.iterationsUsed()};
}

TEST(Tape, IterationBudgetParity)
{
    // 32^3 = 32768 iterations against a 5000-iteration budget: both
    // engines poll on the same 4096-iteration stride, so they cancel
    // at the same charge point.
    Program p = makeMatmul("JKI", 32);
    auto [treeKind, treeIters] =
        runUnderBudget(p, InterpMode::Tree, 5000);
    auto [tapeKind, tapeIters] =
        runUnderBudget(p, InterpMode::Tape, 5000);
    ASSERT_TRUE(treeKind.has_value());
    ASSERT_TRUE(tapeKind.has_value());
    EXPECT_EQ(*treeKind, harness::CancelKind::IterBudget);
    EXPECT_EQ(*tapeKind, harness::CancelKind::IterBudget);
    EXPECT_EQ(treeIters, tapeIters);
}

TEST(Tape, ExternalCancellationParity)
{
    // A pre-cancelled token stops both engines at their first poll.
    Program p = makeMatmul("JKI", 32);
    for (InterpMode mode : {InterpMode::Tree, InterpMode::Tape}) {
        harness::Budget budget;
        harness::CancelToken token(budget);
        token.cancel();
        harness::BudgetScope scope(&token);
        Interpreter interp(p);
        interp.setMode(mode);
        bool cancelled = false;
        try {
            interp.run();
        } catch (const harness::CancelledError &e) {
            cancelled = true;
            EXPECT_EQ(e.kind, harness::CancelKind::External)
                << interpModeName(mode);
        }
        EXPECT_TRUE(cancelled) << interpModeName(mode);
    }
}

/** Feeds a multi-config sweep and folds every record (address, size,
 *  direction, in order) into an FNV-1a hash of the stream. */
class HashingSweep final : public AccessBatchSink
{
  public:
    explicit HashingSweep(const std::vector<CacheConfig> &configs)
        : sim(configs)
    {
    }

    void
    consumeBatch(const AccessRecord *rec, size_t n) override
    {
        for (size_t i = 0; i < n; ++i) {
            mix(rec[i].addr);
            mix(rec[i].size);
            mix(rec[i].isWrite);
        }
        sim.consumeBatch(rec, n);
    }

    MultiCacheSim sim;
    uint64_t hash = 0xcbf29ce484222325ULL;

  private:
    void
    mix(uint64_t v)
    {
        for (int b = 0; b < 8; ++b) {
            hash ^= (v >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    }
};

/** Everything one engine's run of one program exposes. */
struct EngineOutcome
{
    bool ok = false;
    std::string diag;
    ExecStats exec;
    uint64_t checksum = 0;
    std::vector<CacheStats> cache;
    std::vector<double> cycles;
    uint64_t streamHash = 0;
};

EngineOutcome
runEngine(const Program &p, InterpMode mode,
          const std::vector<CacheConfig> &configs)
{
    Interpreter interp(p);
    interp.setMode(mode);
    HashingSweep sink(configs);
    Status st = interp.run(&sink);
    EngineOutcome out;
    out.ok = st.ok();
    if (!st.ok())
        out.diag = st.diag().str();
    out.exec = interp.stats();
    out.checksum = interp.checksum();
    out.streamHash = sink.hash;
    MachineModel m;
    for (size_t i = 0; i < configs.size(); ++i) {
        out.cache.push_back(sink.sim.stats(i));
        out.cycles.push_back(m.cyclesPerStmt * out.exec.stmtsExecuted +
                             m.cyclesPerRef * out.exec.memRefs +
                             m.missPenalty * out.cache.back().misses);
    }
    return out;
}

TEST(Tape, SweepParityAcrossModes)
{
    // The differential gate between the engines. Every kernel (N=24),
    // every corpus program (extent 16) and fuzz seeds 1..500 run once
    // per engine, each raw and Compound-transformed — 1090 variants.
    // The transformed variant doubles the shape coverage (permuted,
    // fused, distributed, scalar-replaced nests); verification is off,
    // since even a program Compound would roll back must agree. The
    // whole observable surface is compared: verdict, Diag text,
    // ExecStats, checksum, cycles, every per-config cache counter, and
    // a hash of the full access-record stream.
    const std::vector<CacheConfig> configs = {CacheConfig::rs6000(),
                                              CacheConfig::i860()};
    int variants = 0;
    auto compare = [&](const std::string &name, const Program &p) {
        ++variants;
        EngineOutcome tree = runEngine(p, InterpMode::Tree, configs);
        EngineOutcome tape = runEngine(p, InterpMode::Tape, configs);
        ASSERT_EQ(tree.ok, tape.ok) << name;
        EXPECT_EQ(tree.diag, tape.diag) << name;
        EXPECT_EQ(tree.exec.stmtsExecuted, tape.exec.stmtsExecuted)
            << name;
        EXPECT_EQ(tree.exec.memRefs, tape.exec.memRefs) << name;
        EXPECT_EQ(tree.exec.loopIterations, tape.exec.loopIterations)
            << name;
        EXPECT_EQ(tree.checksum, tape.checksum) << name;
        EXPECT_EQ(tree.cycles, tape.cycles) << name;
        EXPECT_EQ(tree.streamHash, tape.streamHash) << name;
        for (size_t c = 0; c < configs.size(); ++c) {
            const CacheStats &x = tree.cache[c];
            const CacheStats &y = tape.cache[c];
            const std::string where = name + " on " + configs[c].name;
            EXPECT_EQ(x.accesses, y.accesses) << where;
            EXPECT_EQ(x.hits, y.hits) << where;
            EXPECT_EQ(x.misses, y.misses) << where;
            EXPECT_EQ(x.coldMisses, y.coldMisses) << where;
            EXPECT_EQ(x.evictions, y.evictions) << where;
        }
    };
    auto compareBoth = [&](const std::string &name, Program p) {
        compare(name, p);
        CompoundOptions copts;
        copts.verify = false;
        compoundTransform(p, ModelParams{}, copts);
        compare(name + "#opt", p);
    };

    const std::vector<std::pair<std::string,
                                std::function<Program(int64_t)>>>
        kernels = {
            {"matmul-ijk", [](int64_t n) { return makeMatmul("IJK", n); }},
            {"matmul-ikj", [](int64_t n) { return makeMatmul("IKJ", n); }},
            {"matmul-jki", [](int64_t n) { return makeMatmul("JKI", n); }},
            {"cholesky", makeCholeskyKIJ},
            {"adi", makeAdiScalarized},
            {"erlebacher", makeErlebacherDistributed},
            {"gmtry", makeGmtry},
            {"simple", makeSimpleHydro},
            {"vpenta", makeVpenta},
            {"jacobi", makeJacobiBadOrder},
        };
    for (const auto &[name, make] : kernels)
        compareBoth(name, make(24));
    for (const CorpusSpec &spec : corpusSpecs())
        compareBoth(spec.name, buildCorpusProgram(spec, 16));
    for (uint64_t seed = 1; seed <= 500; ++seed)
        compareBoth("fuzz-" + std::to_string(seed), fuzzProgram(seed));
    EXPECT_EQ(variants, 1090);
}

TEST(EquivJobs, ParallelRoundsAreDeterministic)
{
    // The oracle's verdict, counters and detail string must not
    // depend on the worker count.
    Program ref = makeMatmul("JKI", 8);
    Program sameValues = makeMatmul("IKJ", 8);
    Program broken = makeOobProgram();

    for (auto [a, b] : {std::pair<const Program *, const Program *>{
                            &ref, &sameValues},
                        {&ref, &broken}}) {
        EquivOptions serial;
        serial.jobs = 1;
        EquivResult r1 = checkEquivalence(*a, *b, serial);
        EquivOptions parallel;
        parallel.jobs = 4;
        EquivResult r4 = checkEquivalence(*a, *b, parallel);
        EXPECT_EQ(r1.equivalent, r4.equivalent);
        EXPECT_EQ(r1.comparedRuns, r4.comparedRuns);
        EXPECT_EQ(r1.skippedRuns, r4.skippedRuns);
        EXPECT_EQ(r1.detail, r4.detail);
    }
}

TEST(FuzzJobs, ParallelCampaignIsDeterministic)
{
    // Bitwise-identical report for every jobs value: counters,
    // message order, failure records.
    FuzzReport r1 = runFuzzCampaign(42, 8, {}, 1);
    FuzzReport r4 = runFuzzCampaign(42, 8, {}, 4);
    EXPECT_EQ(r1.programs, r4.programs);
    EXPECT_EQ(r1.validateFailures, r4.validateFailures);
    EXPECT_EQ(r1.roundTripFailures, r4.roundTripFailures);
    EXPECT_EQ(r1.equivFailures, r4.equivFailures);
    EXPECT_EQ(r1.rollbacks, r4.rollbacks);
    EXPECT_EQ(r1.messages, r4.messages);
    ASSERT_EQ(r1.failures.size(), r4.failures.size());
    for (size_t i = 0; i < r1.failures.size(); ++i) {
        EXPECT_EQ(r1.failures[i].seed, r4.failures[i].seed);
        EXPECT_EQ(r1.failures[i].kind, r4.failures[i].kind);
        EXPECT_EQ(r1.failures[i].detail, r4.failures[i].detail);
    }
}

} // namespace
} // namespace memoria
