#!/usr/bin/env python3
"""Bench regression gate: compare BENCH_*.json reports against baselines.

Every *.json in the baseline directory must have a matching report in the
produced directory, and every numeric value present in the baseline must be
within --tolerance (relative) of the produced value. Keys that vary run-to-run
(wall time, machine thread counts, measured_* wall-clock metrics) are never
baselined: --update strips them while regenerating baselines from a produced
directory, so the committed files contain deterministic model outputs only.
The verdict's `measured` text is stripped from a new baseline too, since it
may quote host timings; but where the baseline being replaced carries it, the
re-recorded baseline keeps it (with the produced text), so a re-record never
drops a check the gate was making.

Usage:
  check_bench_regression.py [--tolerance 0.10] <baseline_dir> <produced_dir>
  check_bench_regression.py --update <baseline_dir> <produced_dir> [id ...]

With --update, baselines are (re)written from the produced reports — all of
them, or only the named bench ids. Exit status: 0 clean, 1 regression or
missing report, 2 usage error.
"""

import argparse
import json
import os
import sys

# Dropped from baselines: anything measured on the host rather than computed
# by the (seeded, deterministic) models.
VOLATILE_TOP_LEVEL = {"wall_seconds", "threads"}
VOLATILE_METRIC_PREFIXES = ("measured_",)


def strip_volatile(report, keep_measured=False):
    out = {}
    for key, value in report.items():
        if key in VOLATILE_TOP_LEVEL:
            continue
        if key == "metrics" and isinstance(value, dict):
            out[key] = {
                k: v
                for k, v in value.items()
                if k not in VOLATILE_TOP_LEVEL
                and not k.startswith(VOLATILE_METRIC_PREFIXES)
            }
            continue
        if key == "verdict" and isinstance(value, dict):
            # The measured text may quote host timings (e.g. the trace
            # overhead bench); the boolean shape_reproduced is the gate
            # unless the baseline already pins the text.
            out[key] = {k: v for k, v in value.items()
                        if keep_measured or k != "measured"}
            continue
        out[key] = value
    return out


def compare(baseline, produced, tolerance, path=""):
    """Yield (path, baseline, produced, message) for every mismatch."""
    if isinstance(baseline, dict):
        if not isinstance(produced, dict):
            yield (path, baseline, produced, "type changed")
            return
        for key, b in baseline.items():
            if key not in produced:
                yield (f"{path}.{key}", b, None, "missing from produced report")
                continue
            yield from compare(b, produced[key], tolerance, f"{path}.{key}")
    elif isinstance(baseline, list):
        if not isinstance(produced, list) or len(baseline) != len(produced):
            yield (path, baseline, produced, "array shape changed")
            return
        for i, b in enumerate(baseline):
            yield from compare(b, produced[i], tolerance, f"{path}[{i}]")
    elif isinstance(baseline, bool) or not isinstance(baseline, (int, float)):
        if baseline != produced:
            yield (path, baseline, produced, "value changed")
    else:
        if not isinstance(produced, (int, float)) or isinstance(produced, bool):
            yield (path, baseline, produced, "type changed")
            return
        denom = max(abs(baseline), abs(produced))
        if denom < 1e-9:
            return  # both (near) zero
        if abs(baseline - produced) / denom > tolerance:
            drift = 100.0 * (produced - baseline) / (baseline or denom)
            delta = produced - baseline
            yield (path, baseline, produced,
                   f"delta {delta:+.6g}, drift {drift:+.1f}%")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline_dir")
    ap.add_argument("produced_dir")
    ap.add_argument("ids", nargs="*",
                    help="bench ids to --update (default: all produced)")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="relative tolerance (default 0.10 = ±10%%)")
    ap.add_argument("--update", action="store_true",
                    help="regenerate baselines from the produced reports")
    args = ap.parse_args()

    if not os.path.isdir(args.produced_dir):
        print(f"error: produced dir '{args.produced_dir}' does not exist")
        return 2

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        names = [
            f for f in sorted(os.listdir(args.produced_dir))
            if f.startswith("BENCH_") and f.endswith(".json")
            and "_trace" not in f
        ]
        if args.ids:
            wanted = {f"BENCH_{i}.json" for i in args.ids}
            names = [f for f in names if f in wanted]
            missing = wanted - set(names)
            if missing:
                print(f"error: no produced report for {sorted(missing)}")
                return 2
        for name in names:
            dest = os.path.join(args.baseline_dir, name)
            keep_measured = False
            if os.path.exists(dest):
                with open(dest) as f:
                    keep_measured = "measured" in json.load(f).get("verdict", {})
            with open(os.path.join(args.produced_dir, name)) as f:
                report = strip_volatile(json.load(f), keep_measured)
            with open(dest, "w") as f:
                json.dump(report, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"updated {dest}")
        return 0

    if not os.path.isdir(args.baseline_dir):
        print(f"error: baseline dir '{args.baseline_dir}' does not exist")
        return 2

    failures = 0
    checked = 0
    all_mismatches = []  # (report name, path, baseline, produced, message)
    for name in sorted(os.listdir(args.baseline_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(args.baseline_dir, name)) as f:
            baseline = json.load(f)
        produced_path = os.path.join(args.produced_dir, name)
        if not os.path.exists(produced_path):
            print(f"FAIL {name}: report not produced")
            failures += 1
            all_mismatches.append((name, "<report>", "present", "missing",
                                   "report not produced"))
            continue
        with open(produced_path) as f:
            produced = json.load(f)
        mismatches = list(compare(baseline, produced, args.tolerance))
        checked += 1
        if mismatches:
            failures += 1
            print(f"FAIL {name}:")
            for path, b, p, msg in mismatches:
                print(f"  {path or '<root>'}: baseline={b!r} produced={p!r}"
                      f" ({msg})")
                all_mismatches.append((name, path or "<root>", b, p, msg))
        else:
            print(f"OK   {name} (tolerance ±{args.tolerance * 100:.0f}%)")

    if checked == 0 and failures == 0:
        print(f"error: no baselines found in '{args.baseline_dir}'")
        return 2
    if failures:
        # One consolidated block at the end of the log: every out-of-tolerance
        # metric across every report, so a multi-metric regression is
        # diagnosable without scrolling through interleaved bench output.
        print(f"\n=== regression summary "
              f"({len(all_mismatches)} metric(s) out of tolerance) ===")
        for name, path, b, p, msg in all_mismatches:
            print(f"  {name} :: {path}: baseline={b!r} produced={p!r} ({msg})")
        print(f"\n{failures} bench report(s) regressed beyond "
              f"±{args.tolerance * 100:.0f}%")
        return 1
    print(f"\nall {checked} bench report(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
