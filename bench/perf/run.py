#!/usr/bin/env python3
"""Build and run the host-performance benchmark (bench/perf).

One run of one workload, with the last line of stdout a JSON result:
    python3 bench/perf/run.py --workload nav_diurnal --seed 7 --seconds 10 --trace 0
  --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
  per-layer metrics.

Repeated runs of every workload, in rotating order, with a summary per metric
(median and quartiles) written to bench/perf/out/<sha>.json:
    python3 bench/perf/run.py [--reps 5] [--seconds 10] [--seed 1] [--trace]

Every workload at ~1% size, as a quick correctness check:
    python3 bench/perf/run.py --smoke

Compare two summaries against the BENCHMARK.json bounds:
    python3 bench/perf/run.py --compare out/A.json out/B.json

The benchmark builds bench/perf/build from the sources beside it, uses
nproc - 1 pool workers, and exits non-zero when the build fails or, outside
the one-run form, when an output check fails.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = HERE / "build"
OUT = HERE / "out"
BINARY = BUILD / "antarex_perf"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def threads():
    return max(1, len(os.sched_getaffinity(0)) - 1)


def build():
    """Configure and build antarex_perf; concurrent callers wait on a lock."""
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD))  # compiler temporaries stay in the tree
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if subprocess.run(
                ["ninja", "--version"], capture_output=True).returncode == 0 else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator,
                           check=True, stdout=subprocess.DEVNULL, env=env)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "antarex_perf",
                        "--parallel", str(len(os.sched_getaffinity(0)))],
                       check=True, stdout=subprocess.DEVNULL, env=env)


def run_binary(workload, seed, seconds, trace, smoke=False, trace_out=None):
    """One antarex_perf run; returns (readable lines, parsed JSON result)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--threads", str(threads()),
           "--trace", "1" if trace else "0"]
    if trace_out:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"antarex_perf {workload} exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def one_run(args, spec):
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload}; known: {sorted(names)}")
    lines, res = run_binary(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        raise SystemExit(f"antarex_perf did not report {missing}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


def summarize(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def git(*argv):
    proc = subprocess.run(["git", "-C", str(ROOT)] + list(argv),
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def reps(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs = {w: [] for w in workloads}
    ok = True
    for rep in range(args.reps):
        shift = rep % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            t0 = time.time()
            _, res = run_binary(w, args.seed, args.seconds, False)
            runs[w].append(res)
            print(f"rep {rep + 1}/{args.reps} {w}: {time.time() - t0:.1f} s"
                  f"{'' if res['correct'] else '  CHECK FAILED: ' + '; '.join(res['errors'])}")
            ok = ok and res["correct"]
    traced = {}
    if args.trace:
        for w in workloads:
            trace_out = OUT / f"trace-{w}.json"
            lines, traced[w] = run_binary(w, args.seed, args.seconds, True,
                                          trace_out=trace_out)
            print("\n".join(lines))
            print(f"wrote {trace_out.relative_to(ROOT)}")
            ok = ok and traced[w]["correct"]

    e2e = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    summary = {}
    for w in workloads:
        first = runs[w][0]["counts"]
        if any(r["counts"] != first for r in runs[w]):
            print(f"{w}: CHECK FAILED: deterministic counts differ between reps")
            ok = False
        metrics = {}
        for name in e2e + layer_names:
            values = [r["metrics"][name] for r in runs[w] if name in r["metrics"]]
            if not values and name in traced.get(w, {}).get("metrics", {}):
                values = [traced[w]["metrics"][name]]  # measured only when traced
            if values:
                metrics[name] = dict(summarize(values), unit=units[name])
                if name in e2e:
                    metrics[name]["runs"] = values
        summary[w] = {"metrics": metrics, "counts": first,
                      "attempted": runs[w][0]["attempted"], "failed": runs[w][0]["failed"]}
        if w in traced:
            summary[w]["self_share_pct"] = traced[w]["self_share_pct"]
            summary[w]["worker_share_pct"] = traced[w]["worker_share_pct"]

    print()
    for w in workloads:
        print(f"== {w}  (median [q1, q3] over {args.reps} runs)")
        for name, m in summary[w]["metrics"].items():
            if name in e2e or m["median"] != 0:
                print(f"  {name:30s} {m['median']:14.6g} {m['unit']:8s} "
                      f"[{m['q1']:.6g}, {m['q3']:.6g}]")
        if "self_share_pct" in summary[w]:
            shares = summary[w]["self_share_pct"]
            print(f"  self time, % of traced wall (sum {sum(shares.values()):.1f}%): " +
                  ", ".join(f"{k} {v:.1f}" for k, v in sorted(shares.items(),
                                                           key=lambda kv: -kv[1])))

    sha = git("rev-parse", "--short", "HEAD") or "nogit"
    dirty = bool(git("status", "--porcelain", "--", "src"))
    calib = statistics.median(r["host"]["calib_ns"] for w in workloads for r in runs[w])
    record = {
        "schema": "antarex.perf/v1",
        "sha": sha,
        "src_dirty": dirty,
        "build_type": BUILD_TYPE,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads(),
        "seed": args.seed,
        "reps": args.reps,
        "seconds": args.seconds,
        "host.calib_ns": calib,
        "correct": ok,
        "workloads": summary,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{sha}{'-dirty' if dirty else ''}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def smoke(spec):
    ok = True
    t0 = time.time()
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            _, res = run_binary(w, 1, 0, trace, smoke=True)
            print(f"{w:14s} trace={int(trace)} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {res['errors']}")
            ok = ok and res["correct"]
    print(f"smoke: {'ok' if ok else 'FAILED'} in {time.time() - t0:.1f} s")
    return 0 if ok else 1


def compare(path_a, path_b, spec):
    """Apply the BENCHMARK.json bounds to B against A, per workload."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    regressed = False
    print(f"A = {a['sha']}, B = {b['sha']}")
    for w, wa in a["workloads"].items():
        wb = b["workloads"].get(w)
        if wb is None:
            print(f"== {w}: missing from B")
            regressed = True
            continue
        print(f"== {w}")
        for m in spec["end_to_end"]:
            ma, mb = wa["metrics"][m["name"]], wb["metrics"][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb["median"] - ma["median"]) / abs(ma["median"])
            spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (ma, mb))
            b_always_better = all(sign * (y - x) < 0 for x in ma["runs"] for y in mb["runs"])
            if spread > m["bound"] and not b_always_better:
                verdict = "unresolved (spread wider than bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif -worse > spread:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"  {m['name']:20s} {ma['median']:12.6g} -> {mb['median']:12.6g} "
                  f"{m['unit']:5s} worse {100 * worse:+6.1f}% (bound {100 * m['bound']:.0f}%, "
                  f"spread {100 * spread:.1f}%)  {verdict}")
        same = wa["counts"] == wb["counts"]
        print(f"  deterministic counts {'identical' if same else 'DIFFER'}")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="one run of this workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds)")
    p.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                   help="with --workload: 0 or 1; otherwise also run each workload traced")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"run.py: building antarex_perf failed: {' '.join(e.cmd)}")
    if args.smoke:
        return smoke(spec)
    if args.workload:
        one_run(args, spec)
        return 0
    return reps(args, spec)


if __name__ == "__main__":
    sys.exit(main())
