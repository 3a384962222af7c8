#!/usr/bin/env python3
"""Aggregate gcov line coverage for the antarex sources.

Walks a build tree for .gcda files (produced by running tests in a build
configured with -DANTAREX_COVERAGE=ON), asks gcov for JSON intermediate
output, merges execution counts across translation units, and prints a
per-file table for everything under <source-dir>/src. Optionally writes a
machine-readable coverage.json (the CI artifact) and enforces a minimum
total line coverage with --fail-under. With --uncalled it also lists every
src/ function whose calls, summed across translation units, are zero, and
every src/ source file that left no coverage data at all.

Usage:
  coverage_summary.py --build-dir build-cov --source-dir . -o coverage.json
  coverage_summary.py --build-dir cov --source-dir . --uncalled
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict


def find_gcda(build_dir):
    # Absolute paths: gcov runs inside each file's directory, where a path
    # relative to the caller's directory would not resolve.
    out = []
    for root, _dirs, files in os.walk(os.path.abspath(build_dir)):
        out.extend(os.path.join(root, f) for f in files if f.endswith(".gcda"))
    return sorted(out)


def gcov_json(gcda, source_dir):
    """Run gcov on one .gcda and yield its parsed JSON documents."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda],
        cwd=os.path.dirname(gcda),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        print(f"warning: gcov failed on {gcda}: {proc.stderr.strip()}",
              file=sys.stderr)
        return
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            print(f"warning: unparseable gcov output for {gcda}",
                  file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--source-dir", required=True)
    ap.add_argument("-o", "--output", help="write coverage.json here")
    ap.add_argument("--fail-under", type=float, default=0.0,
                    help="exit 1 if total line coverage (%%) is below this")
    ap.add_argument("--uncalled", action="store_true",
                    help="list src/ functions with zero calls")
    args = ap.parse_args()

    src_root = os.path.realpath(os.path.join(args.source_dir, "src"))
    gcda_files = find_gcda(args.build_dir)
    if not gcda_files:
        print("no .gcda files found — configure with -DANTAREX_COVERAGE=ON "
              "and run the tests first", file=sys.stderr)
        return 2

    # file -> line -> max execution count across all translation units.
    lines = defaultdict(dict)
    # (file, start line, mangled name) -> [demangled name, calls summed
    # across translation units]; an inline function has a counter per TU.
    functions = {}
    for gcda in gcda_files:
        for doc in gcov_json(gcda, args.source_dir):
            cwd = doc.get("current_working_directory", "")
            for f in doc.get("files", []):
                path = f["file"]
                if not os.path.isabs(path):
                    path = os.path.join(cwd, path)
                path = os.path.realpath(path)
                if not path.startswith(src_root + os.sep):
                    continue
                rel = os.path.relpath(path, os.path.dirname(src_root))
                per_file = lines[rel]
                for ln in f.get("lines", []):
                    n = ln["line_number"]
                    per_file[n] = max(per_file.get(n, 0), ln["count"])
                for fn in f.get("functions", []):
                    key = (rel, fn["start_line"], fn["name"])
                    entry = functions.setdefault(
                        key, [fn.get("demangled_name", fn["name"]), 0])
                    entry[1] += fn["execution_count"]

    if not lines:
        print("gcov produced no data for files under src/", file=sys.stderr)
        return 2

    rows = []
    total = covered = 0
    for rel in sorted(lines):
        per_file = lines[rel]
        file_total = len(per_file)
        if file_total == 0:  # header with no executable lines
            continue
        file_covered = sum(1 for c in per_file.values() if c > 0)
        total += file_total
        covered += file_covered
        rows.append((rel, file_covered, file_total,
                     100.0 * file_covered / file_total))

    width = max(len(r[0]) for r in rows)
    print(f"{'file':<{width}}  covered   total     %")
    for rel, file_covered, file_total, pct in rows:
        print(f"{rel:<{width}}  {file_covered:7d} {file_total:7d} {pct:5.1f}")
    pct_total = 100.0 * covered / total
    print("-" * (width + 26))
    print(f"{'TOTAL':<{width}}  {covered:7d} {total:7d} {pct_total:5.1f}")

    if args.output:
        report = {
            "schema": "antarex.coverage/v1",
            "line_coverage_percent": round(pct_total, 2),
            "covered_lines": covered,
            "total_lines": total,
            "files": {
                rel: {"covered": fc, "total": ft, "percent": round(p, 2)}
                for rel, fc, ft, p in rows
            },
        }
        with open(args.output, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.output}")

    if args.uncalled:
        uncalled = sorted((rel, line, name)
                          for (rel, line, _), (name, calls) in functions.items()
                          if calls == 0)
        print(f"\n{len(uncalled)} src/ functions with zero calls:")
        for rel, line, name in uncalled:
            print(f"  {rel}:{line}  {name}")
        no_data = sorted(
            os.path.relpath(os.path.join(root, f), os.path.dirname(src_root))
            for root, _dirs, files in os.walk(src_root) for f in files
            if f.endswith(".cpp"))
        no_data = [rel for rel in no_data if rel not in lines]
        print(f"{len(no_data)} src/ source files with no coverage data:")
        for rel in no_data:
            print(f"  {rel}")

    if pct_total < args.fail_under:
        print(f"coverage {pct_total:.1f}% below --fail-under "
              f"{args.fail_under:.1f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
