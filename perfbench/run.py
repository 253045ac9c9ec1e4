#!/usr/bin/env python3
"""Build and run memoria's end-to-end benchmark.

    python3 perfbench/run.py --workload batch_compile|sim_large
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The first run configures and builds the
benchmark program (perfbench/CMakeLists.txt, Release) together with the memoria
library from ../src into .bench_build/perfbench; later runs only check
that the build is current. Build output goes to stderr, so the last line
of stdout is the program's JSON result. With --trace 1 the spans of the
traced run are also written to .bench_build/perfbench-trace-<workload>.jsonl.
The exit code is the program's: 0 when every output check passed.
MEMORIA_* environment variables are not passed on to the program.

BENCHMARK.json is the one list of workloads and metrics. The program
prints the metrics it measured; this script checks each against the list
(name and unit), and fills in 0 for a per-layer metric whose layer is not
on the workload's path. A metric missing from the list, a unit that
differs, or a missing end-to-end metric fails the run.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: memoria sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def complete(result, expected, fill):
    """Check `result`'s metrics against `expected` (name -> unit) and
    fill in 0 for the missing ones when `fill`; returns the problems."""
    metrics = result["metrics"]
    problems = ["%s: not in BENCHMARK.json" % n
                for n in metrics if n not in expected]
    for name, unit in expected.items():
        if name not in metrics:
            if fill:
                metrics[name] = {"value": 0.0, "unit": unit}
            else:
                problems.append("%s: not measured" % name)
        elif metrics[name]["unit"] != unit:
            problems.append("%s: unit %s, BENCHMARK.json says %s"
                            % (name, metrics[name]["unit"], unit))
    return problems


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(OUT, "perfbench-trace-%s.jsonl" % args.workload)]
    # The measured program runs with its production defaults:
    # MEMORIA_INTERP, for one, would swap the interpreter engine.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MEMORIA_")}
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if not lines:
        return run.returncode or 1
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    result = json.loads(lines[-1])
    kind = "per_layer" if args.trace else "end_to_end"
    problems = complete(result, {m["name"]: m["unit"] for m in spec[kind]},
                        fill=bool(args.trace))
    for p in problems:
        print("perfbench: metric " + p, file=sys.stderr)
    if problems:
        return 1
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
