#!/usr/bin/env python3
"""Sum gcov line coverage per source directory.

    scripts/coverage.py BUILD_DIR [--json OUT.json]

BUILD_DIR is a build configured with --coverage (compile and link) whose
tests have run. The script runs gcov on every object's .gcno note file;
an object whose code never ran has no .gcda and counts as uncovered. It
merges the per-line counts (a header line is covered when any
translation unit executed it), keeps the files under src/ and prints one
row per src/<dir>: instrumented lines, covered lines and the percentage.
--json also writes the table as a JSON document.

Only gcov is needed (lcov is not). The report has no threshold; it is
for watching the numbers, not for gating.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def note_files(build_dir):
    for dirpath, _, names in os.walk(os.path.abspath(build_dir)):
        for name in names:
            if name.endswith(".gcno"):
                yield os.path.join(dirpath, name)


def gcov_documents(gcno):
    """gcov's JSON documents for one object (one per line of output)."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcno],
        cwd=os.path.dirname(gcno), capture_output=True, text=True,
        check=True).stdout
    for line in out.splitlines():
        if line.strip():
            yield json.loads(line)


def line_hits(build_dir):
    """{source path: {line number: executed?}} over every object."""
    hits = collections.defaultdict(dict)
    for gcno in note_files(build_dir):
        for doc in gcov_documents(gcno):
            cwd = doc.get("current_working_directory", "")
            for f in doc["files"]:
                path = os.path.realpath(os.path.join(cwd, f["file"]))
                lines = hits[path]
                for ln in f["lines"]:
                    n = ln["line_number"]
                    lines[n] = lines.get(n, False) or ln["count"] > 0
    return hits


def per_directory(hits):
    """{"src/<dir>": (lines, covered)} for files under src/."""
    table = collections.defaultdict(lambda: [0, 0])
    for path, lines in hits.items():
        rel = os.path.relpath(path, ROOT)
        parts = rel.split(os.sep)
        if parts[0] != "src" or len(parts) < 3:
            continue
        row = table["/".join(parts[:2])]
        row[0] += len(lines)
        row[1] += sum(lines.values())
    return {k: tuple(v) for k, v in sorted(table.items())}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir")
    ap.add_argument("--json", help="also write the table here")
    args = ap.parse_args()

    table = per_directory(line_hits(args.build_dir))
    if not table:
        sys.exit("coverage: no coverage notes for src/ under " +
                 args.build_dir)

    total = [sum(v[0] for v in table.values()),
             sum(v[1] for v in table.values())]
    rows = [(k, n, c) for k, (n, c) in table.items()]
    rows.append(("total", total[0], total[1]))
    width = max(len(r[0]) for r in rows)
    print("%-*s %8s %8s %7s" % (width, "directory", "lines", "covered",
                                "percent"))
    for name, n, c in rows:
        print("%-*s %8d %8d %6.1f%%" % (width, name, n, c,
                                        100.0 * c / n if n else 0.0))

    if args.json:
        doc = {"directories": {k: {"lines": n, "covered": c}
                               for k, (n, c) in table.items()},
               "total": {"lines": total[0], "covered": total[1]}}
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
