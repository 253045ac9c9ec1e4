/**
 * @file
 * The reference check, run outside every timed region: a seeded sample
 * of each workload's programs is optimized with `optimizeProgram`, and
 * the result must leave the original's arrays with the same checksums
 * as the original program under the tree-walking interpreter, which
 * shares no code with the production tape.
 */

#include "bench.hh"
#include "driver/memoria.hh"
#include "interp/interp.hh"

namespace perfbench {

using namespace memoria;

namespace {

/** Programs sampled per run. */
constexpr size_t kSample = 16;
/** Initial-data seeds each sampled program runs under. */
constexpr uint64_t kInitSeeds[] = {0, 0x5eed1};

/** Checksum of `prog`'s first `arrays` arrays under the tree walker,
 *  with every symbolic size bound to `size` (0 keeps the program's). */
Result<uint64_t>
treeChecksum(const Program &prog, size_t arrays, int64_t size,
             uint64_t initSeed)
{
    Interpreter in(prog);
    in.setMode(InterpMode::Tree);
    if (size > 0)
        for (const VarInfo &v : prog.vars)
            if (v.kind == VarKind::Param && !v.paramPoly.isConstant()) {
                Status st = in.setParam(v.name, size);
                if (!st.ok())
                    return Result<uint64_t>::err(st.diag());
            }
    in.setInitSeed(initSeed);
    Status st = in.run(nullptr);
    if (!st.ok())
        return Result<uint64_t>::err(st.diag());
    return in.checksumFirstArrays(arrays);
}

void
checkProgram(const std::string &name, const Program &prog, int64_t size,
             const ModelParams &params, RunResult &res)
{
    PipelineOptions po;
    po.computeIdeal = false;
    const OptimizedProgram opt = optimizeProgram(prog, params, po);
    const size_t arrays = prog.arrays.size();
    for (uint64_t initSeed : kInitSeeds) {
        Result<uint64_t> want = treeChecksum(prog, arrays, size, initSeed);
        Result<uint64_t> got =
            treeChecksum(opt.transformed, arrays, size, initSeed);
        if (!want.ok()) {
            res.fail(name + ": reference run faults: " + want.diag().str());
            return;
        }
        if (!got.ok() || got.value() != want.value()) {
            res.fail(name + ": optimized program's arrays differ from the "
                            "original under the reference engine");
            return;
        }
    }
}

/** `k` distinct indices below `n`, drawn from `seed`. */
std::vector<size_t>
sampleIndices(size_t n, size_t k, uint64_t seed)
{
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = i;
    uint64_t state = mix(seed ^ 0xc4ec);
    for (size_t i = 0; i < std::min(k, n); ++i) {
        state = mix(state);
        std::swap(idx[i], idx[i + state % (n - i)]);
    }
    idx.resize(std::min(k, n));
    return idx;
}

} // namespace

void
checkAgainstReference(const BatchWorkload &w, uint64_t seed,
                      RunResult &res)
{
    // Streaming-size programs are checked shrunk: the tree walker is
    // the slow engine, and the transformation does not depend on n.
    const int64_t size = w.options.simulate ? 16 : 0;
    for (size_t i : sampleIndices(w.programs.size(), kSample, seed)) {
        const BatchProgram &p = w.programs[i];
        Result<Program> prog = p.input.load();
        if (!prog.ok()) {
            res.fail(p.input.name + ": does not load: " + prog.diag().str());
            continue;
        }
        checkProgram(p.input.name, prog.value(), size, w.options.params, res);
    }
}

} // namespace perfbench
