#!/usr/bin/env python3
"""Steadiness tool for the repository benchmark.

Runs one workload K times, each with another seed, and reports for every
end-to-end metric its median, quartiles and spread (the distance between
the first and third quartile as a share of the median) against the bound
in BENCHMARK.json. With --traced T it also makes T traced runs on the
first seed, checks that the per-layer counts repeat exactly, and reports
the tracing overhead: the traced runs' end-to-end medians minus the
untraced ones.

    python3 perfbench/steady.py --workload engine_churn --runs 10 --save a.json
    python3 perfbench/steady.py --compare a.json b.json

--compare checks the agreement criterion between two saved sets: for each
metric the second median is no worse than the first by more than the bound.
Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are exact counts for a fixed seed.
EXACT_COUNTS = ("core.visibility_tests", "core.facets_created",
                "core.dependence_depth", "engine.tests_per_epoch",
                "engine.facets_created_per_epoch")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    delta = (second - first) if better == "lower" else (first - second)
    return delta / abs(first)


def agreement(set1, set2, spec):
    """Rows (metric, median1, median2, worsening, bound, ok) for two sets of
    runs given as {metric: [values]}."""
    rows = []
    for m in spec["end_to_end"]:
        a = statistics.median(set1[m["name"]])
        b = statistics.median(set2[m["name"]])
        w = worsening(a, b, m["better"])
        rows.append((m["name"], a, b, w, m["bound"], w <= m["bound"]))
    return rows


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit("run failed: %s (code %d)" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    traced_e2e = {}
    for line in lines:
        if line.startswith("traced_end_to_end "):
            traced_e2e = {k: v["value"] for k, v in
                          json.loads(line.split(" ", 1)[1]).items()}
    return values, traced_e2e, wall, result


def fmt(x):
    return "%.6g" % x


def report(workload, runs, spec):
    print("\n%s: %d runs" % (workload, len(runs)))
    print("%-16s %12s %12s %12s %8s %6s  %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    ok_all = True
    for m in spec["end_to_end"]:
        vals = [r[m["name"]] for r in runs]
        q1, q2, q3 = quartiles(vals)
        s = spread(vals)
        if m["name"] == "setup_s":
            verdict = "exempt from the spread check"
        elif s <= m["bound"] / 3:
            verdict = "steady (< bound/3)"
        elif s <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            ok_all = False
        print("%-16s %12s %12s %12s %8.4f %6.3f  %s" %
              (m["name"], fmt(q2), fmt(q1), fmt(q3), s, m["bound"], verdict))
    return ok_all


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                saved = json.load(f)
            sets.append({m["name"]: [r[m["name"]] for r in saved["runs"]]
                         for m in spec["end_to_end"]})
        ok_all = True
        print("%-16s %12s %12s %9s %6s" % ("metric", "median 1", "median 2", "worse by", "bound"))
        for name, a, b, w, bound, ok in agreement(sets[0], sets[1], spec):
            ok_all &= ok
            print("%-16s %12s %12s %9.4f %6.3f  %s" %
                  (name, fmt(a), fmt(b), w, bound, "agree" if ok else "DISAGREE"))
        return 0 if ok_all else 1

    if not args.workload:
        ap.error("--workload or --compare is required")
    seconds = args.seconds or spec["run_seconds"]
    runs, walls = [], []
    for i in range(args.runs):
        seed = args.seed_base + i
        values, _, wall, _ = run_once(args.workload, seed, seconds, 0)
        runs.append(values)
        walls.append(wall)
        print("seed %d: %s (%.1f s)" % (seed, " ".join(
            "%s=%s" % (m["name"], fmt(values[m["name"]])) for m in spec["end_to_end"]),
            wall), flush=True)
    ok_all = report(args.workload, runs, spec)
    print("wall time per run: median %.1f s, max %.1f s" %
          (statistics.median(walls), max(walls)))

    traced = []
    for _ in range(args.traced):
        layer, e2e, wall, _ = run_once(args.workload, args.seed_base, seconds, 1)
        traced.append((layer, e2e, wall))
    if traced:
        print("\ntraced runs (seed %d): %d" % (args.seed_base, len(traced)))
        for name in EXACT_COUNTS:
            vals = {t[0][name] for t in traced}
            print("  %-34s %s" % (name, "repeats exactly" if len(vals) == 1
                                  else "DIFFERS: %s" % sorted(vals)))
            ok_all &= len(vals) == 1
        base = runs[0]
        print("  tracing overhead (traced minus untraced run, seed %d):" % args.seed_base)
        for m in spec["end_to_end"]:
            t = statistics.median([tr[1][m["name"]] for tr in traced])
            u = base[m["name"]]
            print("    %-16s untraced %12s traced %12s  diff %+.4g (%+.1f%%)" %
                  (m["name"], fmt(u), fmt(t), t - u, 100 * (t - u) / u if u else 0))
        print("  wall time: untraced %.1f s, traced %.1f s" %
              (walls[0], statistics.median([tr[2] for tr in traced])))

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": runs,
                       "traced": [t[0] for t in traced]}, f, indent=1)
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
