/** The memoria binary's user-visible output, driven as a user runs it. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "support/json.hh"

namespace memoria {
namespace {

/** Run the binary with `args`; returns its stdout. */
std::string
runCli(const std::string &args)
{
    std::string cmd = std::string(MEMORIA_BIN) + " " + args;
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    if (!pipe)
        return {};
    std::string out;
    char buf[4096];
    for (size_t n; (n = fread(buf, 1, sizeof buf, pipe)) > 0;)
        out.append(buf, n);
    EXPECT_EQ(pclose(pipe), 0) << cmd;
    return out;
}

TEST(Cli, SimulateSweepsEachVersionOnce)
{
    std::string out = runCli("simulate adi 100 --stats=json");
    const std::string table =
        "|----------------------------------|-----------------|"
        "------------------|---------|\n"
        "| cache                            | whole orig hit% |"
        " whole final hit% | speedup |\n"
        "|----------------------------------|-----------------|"
        "------------------|---------|\n"
        "| cache1 (RS/6000 64KB 4-way 128B) | 94.79           |"
        " 100.00           | 1.54    |\n"
        "| cache2 (i860 8KB 2-way 32B)      | 78.78           |"
        " 100.00           | 2.30    |\n"
        "|----------------------------------|-----------------|"
        "------------------|---------|\n";
    ASSERT_GE(out.size(), table.size());
    EXPECT_EQ(out.substr(0, table.size()), table);

    // --stats=json appends the registry as the last line: one sweep
    // per program version, both caches fed from it.
    std::string last = out.substr(table.size());
    Result<json::Value> stats = json::parse(last);
    ASSERT_TRUE(stats.ok()) << last;
    const json::Value *counters = stats.value().get("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->getInt("interp.sweep_runs", -1), 2);
}

} // namespace
} // namespace memoria
