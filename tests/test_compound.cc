/** End-to-end Compound tests (Figure 6): every kernel keeps its
 *  semantics and never gets a worse LoopCost. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "check/fuzz.hh"
#include "driver/memoria.hh"
#include "harness/batch.hh"
#include "interp/interp.hh"
#include "ir/builder.hh"
#include "ir/walk.hh"
#include "ir/printer.hh"
#include "model/loopcost.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"

namespace memoria {
namespace {

ModelParams
cls4()
{
    ModelParams p;
    p.lineBytes = 32;
    return p;
}

/** Run Compound and assert semantics preservation. */
CompoundResult
runCompound(Program &p)
{
    uint64_t before = runChecksum(p);
    CompoundResult r = compoundTransform(p, cls4());
    EXPECT_EQ(runChecksum(p), before) << p.name;
    return r;
}

TEST(Compound, MatmulWorstOrderFixed)
{
    Program p = makeMatmul("IKJ", 20);
    CompoundResult r = runCompound(p);
    ASSERT_EQ(r.nests.size(), 1u);
    const NestReport &rep = r.nests[0];
    EXPECT_FALSE(rep.origMemoryOrder);
    EXPECT_TRUE(rep.finalMemoryOrder);
    EXPECT_TRUE(rep.finalInnerMemoryOrder);
    EXPECT_TRUE(rep.usedPermutation);
    EXPECT_TRUE(rep.finalCost < rep.origCost);
    // Final equals ideal for a fully permutable nest.
    EXPECT_TRUE(rep.finalCost == rep.idealCost);
}

TEST(Compound, MatmulAlreadyOptimalUntouched)
{
    Program p = makeMatmul("JKI", 16);
    Program orig = p.clone();
    CompoundResult r = runCompound(p);
    EXPECT_TRUE(r.nests[0].origMemoryOrder);
    EXPECT_TRUE(structurallyEqual(p, orig));
}

TEST(Compound, CholeskyDistributesAndInterchanges)
{
    Program p = makeCholeskyKIJ(16);
    CompoundResult r = runCompound(p);
    EXPECT_EQ(r.distributions, 1);
    EXPECT_EQ(r.resultingNests, 2);
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].usedDistribution);
    EXPECT_EQ(runChecksum(p), runChecksum(makeCholeskyKJI(16)));
}

TEST(Compound, AdiFusesAndInterchanges)
{
    Program p = makeAdiScalarized(16);
    CompoundResult r = runCompound(p);
    ASSERT_EQ(r.nests.size(), 1u);
    const NestReport &rep = r.nests[0];
    EXPECT_TRUE(rep.usedFusion);
    EXPECT_TRUE(rep.finalInnerMemoryOrder);
    // Result should match the hand-fused Figure 3(c) semantics.
    EXPECT_EQ(runChecksum(p), runChecksum(makeAdiFused(16)));
    // Structure: K outer, I inner, two statements.
    Node *top = p.body[0].get();
    auto chain = perfectChain(top);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(p.varName(chain[0]->var), "K");
    EXPECT_EQ(p.varName(chain[1]->var), "I");
    EXPECT_EQ(countStmts(*top), 2);
}

TEST(Compound, GmtryGetsUnitStride)
{
    Program p = makeGmtry(14);
    CompoundResult r = runCompound(p);
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_TRUE(r.nests[0].usedDistribution ||
                r.nests[0].usedPermutation);
    EXPECT_TRUE(r.nests[0].finalCost < r.nests[0].origCost);
}

TEST(Compound, SimpleHydroReordered)
{
    Program p = makeSimpleHydro(16);
    CompoundResult r = runCompound(p);
    for (const auto &rep : r.nests) {
        EXPECT_TRUE(rep.finalMemoryOrder);
        EXPECT_TRUE(rep.finalCost < rep.origCost);
    }
}

TEST(Compound, VpentaPermutedAndMaybeFused)
{
    Program p = makeVpenta(16);
    CompoundResult r = runCompound(p);
    for (const auto &rep : r.nests)
        EXPECT_TRUE(rep.finalInnerMemoryOrder);
}

TEST(Compound, ErlebacherFusionStats)
{
    Program p = makeErlebacherDistributed(10);
    CompoundResult r = runCompound(p);
    EXPECT_GT(r.fusion.candidates, 0);
    EXPECT_GT(r.fusion.fused, 0);
    EXPECT_EQ(r.totalNests, 5);
}

TEST(Compound, FusionAblationFlag)
{
    Program p1 = makeErlebacherDistributed(10);
    uint64_t before = runChecksum(p1);
    CompoundResult r1 = compoundTransform(p1, cls4(), false);
    EXPECT_EQ(runChecksum(p1), before);
    EXPECT_EQ(r1.fusion.fused, 0);
    EXPECT_EQ(p1.body.size(), 5u);
}

/** I-outer wavefront: memory order wants I innermost, but the
 *  (1,-1) dependence forbids the interchange. */
Program
wavefront()
{
    ProgramBuilder b("wave");
    Var n = b.param("N", 16);
    Arr a = b.array("A", {Ix(n) + 2, Ix(n) + 2});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 2, n,
                 b.loop(j, 2, n,
                        b.assign(a(i, j),
                                 a(Ix(i) - 1, Ix(j) + 1) +
                                     a(Ix(i) - 1, Ix(j) - 1)))));
    return b.finish();
}

TEST(Compound, WavefrontReportsDependenceFailure)
{
    Program p = wavefront();
    CompoundResult r = runCompound(p);
    ASSERT_EQ(r.nests.size(), 1u);
    EXPECT_FALSE(r.nests[0].finalMemoryOrder);
    EXPECT_EQ(r.nests[0].fail, PermuteFail::Dependences);
}

TEST(Compound, EveryKernelSemanticsPreserved)
{
    std::vector<Program> programs;
    programs.push_back(makeMatmul("IKJ", 12));
    programs.push_back(makeCholeskyKIJ(12));
    programs.push_back(makeAdiScalarized(10));
    programs.push_back(makeErlebacherDistributed(8));
    programs.push_back(makeErlebacherHand(8));
    programs.push_back(makeGmtry(10));
    programs.push_back(makeSimpleHydro(12));
    programs.push_back(makeVpenta(12));
    programs.push_back(makeJacobiBadOrder(12));
    for (auto &p : programs) {
        SCOPED_TRACE(p.name);
        runCompound(p);
    }
}

TEST(Compound, CostNeverWorsens)
{
    std::vector<Program> programs;
    programs.push_back(makeMatmul("IKJ", 64));
    programs.push_back(makeCholeskyKIJ(64));
    programs.push_back(makeAdiScalarized(64));
    programs.push_back(makeGmtry(64));
    programs.push_back(makeVpenta(64));
    for (auto &p : programs) {
        SCOPED_TRACE(p.name);
        CompoundResult r = runCompound(p);
        for (const auto &rep : r.nests)
            EXPECT_TRUE(rep.finalCost <= rep.origCost);
    }
}

TEST(Compound, SimulatedMissesImproveForScalarizedKernels)
{
    // The bottom line: transformed programs miss less in the simulated
    // i860 cache (paper Table 4's direction of change).
    for (auto make : {makeGmtry, makeVpenta}) {
        Program orig = make(48);
        Program opt = orig.clone();
        compoundTransform(opt, cls4());
        RunResult before = runWithCache(orig, CacheConfig::i860());
        RunResult after = runWithCache(opt, CacheConfig::i860());
        EXPECT_EQ(before.checksum, after.checksum);
        EXPECT_LT(after.cache.misses, before.cache.misses) << orig.name;
    }
}

// --- After-stats of a nest Compound left alone ------------------------

/** Swap the two outer loop variables: the illegal interchange a buggy
 *  transformation would make on the wavefront. */
void
swapOuterLoops(std::vector<NodePtr> &ownerBody, size_t index, size_t)
{
    Node *nest = ownerBody[index].get();
    std::swap(nest->var, nest->body[0]->var);
}

class UnchangedNestTest : public ::testing::Test
{
  protected:
    void TearDown() override { setCompoundSabotageHook(nullptr); }
};

TEST_F(UnchangedNestTest, AlteredNestGetsFreshAfterStats)
{
    // What the sabotaged nest looks like, analysed on its own.
    Program altered = wavefront();
    swapOuterLoops(altered.body, 0, 1);
    NestAnalysis na(altered, altered.body[0].get(), cls4());

    Program p = wavefront();
    setCompoundSabotageHook(swapOuterLoops);
    CompoundOptions opts;
    opts.verify = false;
    CompoundResult r = compoundTransform(p, cls4(), opts);

    ASSERT_EQ(r.nests.size(), 1u);
    const NestReport &rep = r.nests[0];
    EXPECT_FALSE(rep.usedPermutation || rep.usedFusion ||
                 rep.usedDistribution || rep.usedReversal);
    EXPECT_FALSE(rep.rolledBack);
    EXPECT_FALSE(rep.origMemoryOrder);
    EXPECT_TRUE(rep.finalMemoryOrder);
    EXPECT_EQ(rep.fail, PermuteFail::None);
    EXPECT_EQ(rep.finalMemoryOrder, nestInMemoryOrder(na));
    EXPECT_EQ(rep.finalInnerMemoryOrder, innermostInMemoryOrder(na));
    EXPECT_TRUE(rep.finalCost == nestCost(na)) << rep.finalCost.str();
    EXPECT_TRUE(rep.finalCost < rep.origCost);
    AccessStats want = gatherAccessStats(na);
    EXPECT_EQ(rep.finalAccess.unitGroups, want.unitGroups);
    EXPECT_EQ(rep.finalAccess.noneGroups, want.noneGroups);
    EXPECT_EQ(rep.finalAccess.totalRefs(), want.totalRefs());
    EXPECT_NE(rep.finalAccess.unitGroups, rep.origAccess.unitGroups);
}

TEST_F(UnchangedNestTest, RolledBackNestKeepsItsBeforeStats)
{
    Program p = wavefront();
    Program orig = p.clone();
    setCompoundSabotageHook(swapOuterLoops);
    CompoundResult r = compoundTransform(p, cls4(), CompoundOptions{});

    ASSERT_EQ(r.nests.size(), 1u);
    const NestReport &rep = r.nests[0];
    EXPECT_TRUE(rep.rolledBack);
    EXPECT_TRUE(structurallyEqual(p, orig));
    EXPECT_FALSE(rep.finalMemoryOrder);
    EXPECT_EQ(rep.finalMemoryOrder, rep.origMemoryOrder);
    EXPECT_EQ(rep.finalInnerMemoryOrder, rep.origInnerMemoryOrder);
    EXPECT_EQ(rep.fail, PermuteFail::Dependences);
    EXPECT_TRUE(rep.finalCost == rep.origCost);
    EXPECT_EQ(rep.finalAccess.unitGroups, rep.origAccess.unitGroups);
    EXPECT_EQ(rep.finalAccess.noneGroups, rep.origAccess.noneGroups);
}

// --- Golden reports (Table 2 and Table 5 inputs) ---------------------

std::string
flags(bool a, bool b)
{
    return std::string(a ? "1" : "0") + (b ? "1" : "0");
}

std::string
renderAccess(const AccessStats &a)
{
    std::ostringstream os;
    os << a.invGroups << "/" << a.unitGroups << "/" << a.noneGroups
       << " sp=" << a.spatialGroups << " refs=" << a.invRefs << "/"
       << a.unitRefs << "/" << a.noneRefs;
    return os.str();
}

/** Every NestReport and ProgramReport field plus the Table 5 access
 *  statistics of one optimized program, one fact group per line. */
std::string
renderReports(const OptimizedProgram &opt)
{
    const ProgramReport &r = opt.report;
    std::ostringstream os;
    char ratios[128];
    std::snprintf(ratios, sizeof ratios, "%.9g %.9g %.9g %.9g",
                  r.ratioFinal, r.ratioIdeal, r.ratioFinalWt,
                  r.ratioIdealWt);
    os << r.name << ": loops=" << r.loops << " nests=" << r.nests
       << " whole=" << r.nestsOrig << "/" << r.nestsPerm << "/"
       << r.nestsFail << " inner=" << r.innerOrig << "/" << r.innerPerm
       << "/" << r.innerFail << " fail=" << r.failDeps << "/"
       << r.failBounds << " C=" << r.fusion.candidates
       << " A=" << r.fusion.fused << " D=" << r.distributions
       << " R=" << r.resultingNests << " verify=" << r.failVerify
       << " ratios=" << ratios << "\n";
    os << "  access orig " << renderAccess(opt.accessOrig) << " final "
       << renderAccess(opt.accessFinal) << " ideal "
       << renderAccess(opt.accessIdeal) << "\n";
    for (size_t i = 0; i < opt.compound.nests.size(); ++i) {
        const NestReport &n = opt.compound.nests[i];
        os << "  nest " << i << " depth=" << n.depth << " order="
           << flags(n.origMemoryOrder, n.origInnerMemoryOrder) << "->"
           << flags(n.finalMemoryOrder, n.finalInnerMemoryOrder)
           << " used=" << (n.usedPermutation ? "P" : "-")
           << (n.usedFusion ? "F" : "-")
           << (n.usedDistribution ? "D" : "-")
           << (n.usedReversal ? "R" : "-")
           << " fail=" << permuteFailName(n.fail)
           << " rolled_back=" << n.rolledBack
           << " cost=" << n.origCost.str() << " | "
           << n.finalCost.str() << " | " << n.idealCost.str() << "\n";
    }
    return os.str();
}

/** The 10 built-in kernels, the 35 corpus programs and six fuzz
 *  programs, as the batch driver and `memoria fuzz` build them. */
std::vector<Program>
goldenPrograms()
{
    std::vector<Program> out;
    std::vector<harness::BatchInput> inputs = harness::kernelInputs(24);
    for (harness::BatchInput &in : harness::corpusInputs(16))
        inputs.push_back(std::move(in));
    for (const harness::BatchInput &in : inputs) {
        Result<Program> p = in.load();
        EXPECT_TRUE(p.ok()) << in.name;
        if (p.ok())
            out.push_back(std::move(p.value()));
    }
    for (uint64_t seed = 1; seed <= 6; ++seed)
        out.push_back(fuzzProgram(seed));
    return out;
}

std::string
renderAll(const std::vector<Program> &programs, bool verify)
{
    PipelineOptions opts;
    opts.compound.verify = verify;
    std::string text;
    for (const Program &p : programs)
        text += renderReports(optimizeProgram(p, ModelParams{}, opts));
    return text;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

/**
 * Pins every per-nest and per-program statistic the driver reports,
 * with verification on (as batch and serve run it) and off. On a
 * mismatch the rendering is written to compound_reports.actual.txt in
 * the test build directory; after an intended change to the model or
 * to Compound, copy it over tests/golden/compound_reports.txt.
 */
TEST(CompoundGolden, ReportsArePinned)
{
    const std::string path =
        std::string(MEMORIA_GOLDEN_DIR) + "/compound_reports.txt";
    std::vector<Program> programs = goldenPrograms();
    std::string actual = renderAll(programs, true);
    EXPECT_EQ(renderAll(programs, false), actual)
        << "verification changed a report on correct code";

    std::ifstream in(path);
    ASSERT_TRUE(in) << "cannot open " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    if (golden.str() == actual)
        return;

    std::ofstream(MEMORIA_GOLDEN_ACTUAL) << actual;
    std::vector<std::string> want = splitLines(golden.str());
    std::vector<std::string> got = splitLines(actual);
    std::string program;
    for (size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
        if (want[i].rfind("  ", 0) != 0)
            program = want[i].substr(0, want[i].find(':'));
        ASSERT_EQ(got[i], want[i])
            << "line " << i + 1 << ", program " << program
            << "; full rendering in " << MEMORIA_GOLDEN_ACTUAL;
    }
    FAIL() << got.size() << " lines rendered, " << want.size()
           << " pinned; full rendering in " << MEMORIA_GOLDEN_ACTUAL;
}

} // namespace
} // namespace memoria
