/**
 * @file
 * Reuse-distance profile before and after optimization.
 *
 * The reuse-distance histogram determines the miss ratio of every
 * fully associative LRU capacity at once, so it shows the *entire*
 * locality profile the transformations change — machine-independent,
 * like the paper's cost model, but measured rather than predicted.
 */

#include "cachesim/sweep.hh"
#include "common.hh"
#include "interp/interp.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"

namespace memoria {
namespace {

int
benchMain()
{
    const int64_t n = 48;
    Program orig = makeMatmul("IKJ", n);
    Program opt = orig.clone();
    compoundTransform(opt, paperModel());

    // Reuse-only sweeps: no set-associative configs, one pass each.
    const SweepReuseOptions reuse{true, 32};
    MultiCacheSim s0({}, reuse), s1({}, reuse);
    Interpreter(orig).run(&s0);
    Interpreter(opt).run(&s1);
    const ReuseDistanceAnalyzer &r0 = *s0.reuse();
    const ReuseDistanceAnalyzer &r1 = *s1.reuse();

    banner("Reuse-distance histogram: matmul IKJ vs optimized (N=48)");
    TextTable t({"distance (lines)", "original", "optimized",
                 "orig bar", "opt bar"});
    size_t buckets =
        std::max(r0.histogram().size(), r1.histogram().size());
    auto at = [](const std::vector<uint64_t> &h, size_t b) {
        return b < h.size() ? h[b] : 0;
    };
    for (size_t b = 0; b < buckets; ++b) {
        uint64_t c0 = at(r0.histogram(), b);
        uint64_t c1 = at(r1.histogram(), b);
        std::string label = b == 0 ? "0-1"
                                   : std::to_string(1ULL << b) + "-" +
                                         std::to_string(
                                             (1ULL << (b + 1)) - 1);
        t.addRow({label, std::to_string(c0), std::to_string(c1),
                  asciiBar(static_cast<double>(c0) /
                               r0.warmAccesses(), 20),
                  asciiBar(static_cast<double>(c1) /
                               r1.warmAccesses(), 20)});
    }
    std::cout << t.str();
    std::cout << "\nmean reuse distance: "
              << TextTable::num(r0.meanDistance(), 1) << " -> "
              << TextTable::num(r1.meanDistance(), 1) << " lines\n";

    banner("Implied miss ratio vs fully associative capacity");
    TextTable m({"capacity (lines)", "original miss%",
                 "optimized miss%"});
    for (uint64_t cap : {16, 64, 256, 1024, 4096}) {
        m.addRow({std::to_string(cap),
                  TextTable::num(100.0 * r0.missRatio(cap), 1),
                  TextTable::num(100.0 * r1.missRatio(cap), 1)});
    }
    std::cout << m.str();
    std::cout << "\nexpected shape: the optimized histogram mass moves "
                 "to short distances, so the miss curve drops at every "
                 "realistic capacity.\n";
    return 0;
}

} // namespace
} // namespace memoria

int
main()
{
    return memoria::benchMain();
}
