/**
 * @file
 * perfbench: memoria's end-to-end benchmark program.
 *
 *   perfbench --workload <batch_compile|sim_large>
 *             [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
 *
 * With --trace 0 it prints every end-to-end metric; with --trace 1 it
 * runs the traced per-layer run instead and prints the per-layer
 * metrics of the layers on the workload's path (run.py reports the
 * others as 0). Either way the last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * Output mismatches go to stderr and make `correct` false and the exit
 * code 1.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "bench.hh"
#include "support/json.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "batch_compile|sim_large [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--trace-out")
                o.traceOut = v;
            else
                usage("unknown flag " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0) || o.seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    return o;
}

void
print(const RunResult &r)
{
    memoria::json::Value metrics = memoria::json::Value::object();
    for (const auto &[name, m] : r.metrics) {
        memoria::json::Value v = memoria::json::Value::object();
        v.set("value", memoria::json::Value::number(m.value));
        v.set("unit", memoria::json::Value::string(m.unit));
        metrics.set(name, std::move(v));
    }
    memoria::json::Value out = memoria::json::Value::object();
    out.set("correct", memoria::json::Value::boolean(r.correct));
    out.set("attempted", memoria::json::Value::number(
                             static_cast<int64_t>(r.attempted)));
    out.set("failed", memoria::json::Value::number(
                          static_cast<int64_t>(r.failed)));
    out.set("metrics", std::move(metrics));
    std::cout << out.dump() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    if (opts.workload != "batch_compile" && opts.workload != "sim_large")
        usage("unknown workload " + opts.workload);
    RunResult res;
    try {
        const BatchWorkload w = opts.workload == "batch_compile"
                                    ? batchCompileWorkload(opts.seed)
                                    : simLargeWorkload(opts.seed);
        res = opts.trace ? tracedBatch(w, opts) : timedBatch(w, opts);
    } catch (const std::exception &e) {
        // Generated inputs never fail a layer call; one that does is a
        // wrong output, and the run reports no numbers.
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    for (const std::string &p : res.problems)
        std::cerr << "perfbench: check failed: " << p << "\n";
    print(res);
    return res.correct ? 0 : 1;
}
