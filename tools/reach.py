#!/usr/bin/env python3
"""Which src/ functions do the workloads reach? Build, run, list, gate.

Builds two `--coverage -O1` trees out of the source tree, one for the main
project and one for bench/perf, runs every workload once (every bench, every
example, both CLI tools and the four bench/perf workloads), then lists each
src/ function with zero calls through `coverage_summary.py --uncalled`.

The list is gated against the allow-list tools/reach_allow.txt. Each line
there names one function as `--uncalled` prints it, without the line
number, followed by `# reason`:

    src/nav/nav.cpp  antarex::nav::k_alternatives(...)  # paper feature

The script exits 1 when a zero-call function is missing from the allow-list,
when an allow-list entry is now reached or still reads `# TODO`, or when a
src/ file left no coverage data; it exits 2 when a build or a workload fails.
`--update` rewrites the allow-list to the current zero-call set, keeping the
reason of every entry that stays and marking new ones `# TODO`.

Blind spot: gcov lists only functions the compiler emitted. A function
defined in a header that no translation unit calls is never emitted, so it
appears neither as reached nor as zero-call, and the gate cannot see it.
Find those by grep instead; ShardedCluster::it_power_w, RequestTree::wall_s,
tuner::Monitor::ewma and empty, and EnergyAccountant::interval_s were all
such, and were deleted.

Usage:
  tools/reach.py [--work-dir DIR] [--update]
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAGS = "--coverage -O1"
EXAMPLES = ["quickstart", "drug_discovery", "navigation",
            "dynamic_specialization", "power_management"]
TOOLS = ["antarex-weave", "antarex-report"]
PERF_WORKLOADS = ["toolflow", "dock_campaign", "nav_diurnal", "fleet_hour"]
ALLOW = ROOT / "tools" / "reach_allow.txt"


def run(cmd, cwd=None):
    print("+ " + " ".join(str(c) for c in cmd), flush=True)
    proc = subprocess.run([str(c) for c in cmd], cwd=cwd,
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        print(f"reach: command failed with exit {proc.returncode}",
              file=sys.stderr)
        sys.exit(2)


def configure_and_build(source, tree, targets):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (tree / "CMakeCache.txt").exists():
        run(["cmake", "-S", source, "-B", tree, *generator,
             "-DCMAKE_BUILD_TYPE=Debug", f"-DCMAKE_CXX_FLAGS={FLAGS}",
             "-DCMAKE_EXE_LINKER_FLAGS=--coverage"])
    run(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1),
         "--target", *targets])


def bench_names():
    text = (ROOT / "bench" / "CMakeLists.txt").read_text()
    return re.findall(r"^antarex_add_bench\((\w+)\)", text, re.M)


def run_workloads(cov, cov_perf, rundir):
    """The traffic: every command whose reach decides what src/ keeps."""
    for bench in bench_names():
        args = (["--benchmark_min_time=0.01"] if bench == "bench_micro"
                else ["--threads", "2"])
        run([cov / "bench" / bench, *args], cwd=rundir)
    for example in EXAMPLES:
        run([cov / "examples" / example], cwd=rundir)
    report = cov / "tools" / "antarex-report"
    run([report, "power_management_trace.json",
         "--metrics", "power_management_metrics.json",
         "--attribution", "power_management_attribution.json",
         "-o", "report.html"], cwd=rundir)
    run([report, "--selftest"], cwd=rundir)
    weave = cov / "tools" / "antarex-weave"
    saxpy = ROOT / "tools" / "samples" / "saxpy.c"
    lara = ROOT / "tools" / "samples" / "profile.lara"
    for args in (["weave", saxpy, lara, "ProfileArguments", "'saxpy'"],
                 ["run", saxpy, "main_entry", "10", "3"],
                 ["explore", saxpy, "main_entry", "16", "2"],
                 ["disasm", saxpy, "saxpy"],
                 ["check", saxpy]):
        run([weave, *args], cwd=rundir)
    perf = cov_perf / "antarex_perf"
    common = ["--seed", "1", "--threads", "3"]
    for workload in PERF_WORKLOADS:
        for trace in ("0", "1"):
            run([perf, "--workload", workload, *common, "--seconds", "2",
                 "--trace", trace, "--smoke"], cwd=rundir)
    run([perf, "--workload", "fleet_hour", *common, "--seconds", "20",
         "--trace", "0"], cwd=rundir)


def uncalled(work):
    """(zero-call {(file, name)}, [files with no data]) from --uncalled."""
    proc = subprocess.run(
        [sys.executable, ROOT / "tools" / "coverage_summary.py",
         "--build-dir", work, "--source-dir", ROOT, "--uncalled"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(2)
    functions, no_data, section = set(), [], None
    for line in proc.stdout.splitlines():
        if line.endswith("functions with zero calls:"):
            section = "functions"
        elif line.endswith("files with no coverage data:"):
            section = "files"
        elif section == "functions" and line.startswith("  "):
            where, name = line.strip().split("  ", 1)
            functions.add((where.rsplit(":", 1)[0], name))
        elif section == "files" and line.startswith("  "):
            no_data.append(line.strip())
    return functions, no_data


def read_allow(path):
    """{(file, name): reason}; raises on a line without a reason."""
    allow = {}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        entry, sep, reason = line.rpartition("  # ")
        fields = entry.split("  ", 1)
        if not sep or len(fields) != 2 or not reason.strip():
            raise SystemExit(f"{path}:{n}: expected "
                             "'<file>  <function>  # <reason>'")
        allow[(fields[0], fields[1])] = reason.strip()
    return allow


def write_allow(path, functions, allow):
    header = [line for line in path.read_text().splitlines()
              if line.startswith("#")] if path.exists() else []
    body = [f"{f}  {name}  # {allow.get((f, name), 'TODO')}"
            for f, name in sorted(functions)]
    path.write_text("\n".join(header + body) + "\n")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--work-dir", type=Path,
                    default=Path(tempfile.gettempdir()) / "antarex-reach",
                    help="holds the two coverage trees and the run directory")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the allow-list to the current zero-call set")
    args = ap.parse_args()

    work = args.work_dir.resolve()
    if work == ROOT or ROOT in work.parents:
        raise SystemExit("reach: --work-dir must be outside the source tree")
    cov, cov_perf, rundir = work / "cov", work / "cov-perf", work / "run"
    configure_and_build(ROOT, cov, [*bench_names(), *EXAMPLES, *TOOLS])
    configure_and_build(ROOT / "bench" / "perf", cov_perf, ["antarex_perf"])

    # Counts from an earlier run would add to this one's.
    for gcda in work.rglob("*.gcda"):
        gcda.unlink()
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    run_workloads(cov, cov_perf, rundir)

    functions, no_data = uncalled(work)
    print(f"\n{len(functions)} src/ functions with zero calls")
    allow = read_allow(ALLOW) if ALLOW.exists() else {}
    if args.update:
        write_allow(ALLOW, functions, allow)
        print(f"wrote {ALLOW}")
        allow = read_allow(ALLOW)

    missing = sorted(functions - allow.keys())
    reached = sorted(allow.keys() - functions)
    todo = sorted(key for key, reason in allow.items() if reason == "TODO")
    for f, name in missing:
        print(f"not reached and not on the allow-list: {f}  {name}")
    for f, name in reached:
        print(f"on the allow-list but now reached: {f}  {name}")
    for f, name in todo:
        print(f"allow-list entry without a reason: {f}  {name}")
    for f in no_data:
        print(f"no coverage data: {f}")
    if missing or reached or todo or no_data:
        return 1
    print(f"every zero-call function is on {ALLOW.name} with a reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())
