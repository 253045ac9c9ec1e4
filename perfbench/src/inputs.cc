/**
 * @file
 * Seeded workload inputs. The seed picks the fuzz programs and small
 * size offsets; everything else is fixed so a
 * run's amount of work stays close to the stated input sizes.
 */

#include <functional>

#include "bench.hh"
#include "check/fuzz.hh"
#include "ir/printer.hh"
#include "suite/kernels.hh"

namespace perfbench {

using namespace memoria;

namespace {

/** Fuzz programs batch_compile adds to the kernels and the corpus. */
constexpr int kCompileFuzzPrograms = 600;
std::string
fuzzSource(uint64_t seed)
{
    return printProgram(fuzzProgram(seed));
}

BatchProgram
textProgram(std::string name, std::string source)
{
    return {harness::namedInput(std::move(name), source), source};
}

BatchProgram
builtProgram(harness::BatchInput in)
{
    return {std::move(in), ""};
}

} // namespace

std::vector<CacheConfig>
simCaches()
{
    return {CacheConfig::i860(), CacheConfig::rs6000()};
}

BatchWorkload
batchCompileWorkload(uint64_t seed)
{
    BatchWorkload w;
    for (harness::BatchInput &in : harness::kernelInputs(24))
        w.programs.push_back(builtProgram(std::move(in)));
    for (harness::BatchInput &in : harness::corpusInputs(16))
        w.programs.push_back(builtProgram(std::move(in)));
    for (int i = 0; i < kCompileFuzzPrograms; ++i) {
        const uint64_t s = mix(seed * 1000003u + i);
        w.programs.push_back(
            textProgram("fuzz-" + std::to_string(s), fuzzSource(s)));
    }
    w.options.jobs = 2;
    w.options.simulate = false;
    w.options.cacheConfigs = simCaches();
    return w;
}

BatchWorkload
simLargeWorkload(uint64_t seed)
{
    // Sizes stream about 1.4M accesses per program version; the seed
    // adds 0..2 to each. The order is fixed, largest first: adi and
    // vpenta then always run side by side, so every pass reaches the
    // same peak resident set (with another order, whether they overlap
    // depended on timing and the peak moved by a quarter).
    struct Kernel
    {
        const char *name;
        int64_t n;
        std::function<Program(int64_t)> make;
    };
    const std::vector<Kernel> kernels = {
        {"adi", 400, [](int64_t n) { return makeAdiScalarized(n); }},
        {"vpenta", 300, [](int64_t n) { return makeVpenta(n); }},
        {"jacobi", 400, [](int64_t n) { return makeJacobiBadOrder(n); }},
        {"erlebacher", 56,
         [](int64_t n) { return makeErlebacherDistributed(n); }},
        {"cholesky", 112, [](int64_t n) { return makeCholeskyKIJ(n); }},
        {"matmul-ikj", 72, [](int64_t n) { return makeMatmul("IKJ", n); }},
    };
    BatchWorkload w;
    for (size_t k = 0; k < kernels.size(); ++k) {
        const int64_t n =
            kernels[k].n + static_cast<int64_t>(mix(seed * 31 + k) % 3);
        auto make = kernels[k].make;
        w.programs.push_back(builtProgram(
            {std::string(kernels[k].name) + "@" + std::to_string(n),
             [make, n]() { return Result<Program>(make(n)); }}));
    }
    w.options.jobs = 2;
    w.options.simulate = true;
    w.options.cacheConfigs = simCaches();
    return w;
}

std::vector<harness::BatchInput>
batchInputs(const BatchWorkload &w)
{
    std::vector<harness::BatchInput> in;
    for (const BatchProgram &p : w.programs)
        in.push_back(p.input);
    return in;
}

} // namespace perfbench
