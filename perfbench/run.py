#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and compiles the
library and the benchmark with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild only what changed.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json
with --trace 0, its per_layer metrics with --trace 1. A failed build, an
oracle mismatch or a missing metric exits non-zero without that line.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def sh(cmd, log):
    """Run a build step with its output appended to `log`; True on success."""
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode == 0


def build(targets):
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    ok = sh(configure, log)
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not ok and os.path.exists(cache):
        os.remove(cache)  # a cache left by a checkout at another path
        ok = sh(configure, log)
    jobs = str(min(4, os.cpu_count() or 1))
    ok = ok and sh(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets, log)
    if not ok:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        sys.stderr.write("perfbench: build failed (log: %s)\n" % log)
        sys.exit(1)
    return bdir


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """sha256 over the library and benchmark sources that get compiled."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def selftest():
    bdir = build(["perfbench_selftest"])
    rc = subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode
    rc2 = subprocess.run([sys.executable, "-m", "unittest", "-q", "test_steady"],
                         cwd=os.path.join(HERE, "tests")).returncode
    return 0 if rc == 0 and rc2 == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")

    names = metric_names(args.trace)
    bdir = build(["perfbench"])
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work,
           "--commit", git_commit(), "--source", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write("perfbench: run failed with code %d\n" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    measured = result["metrics"]
    missing = [n for n in names if n not in measured]
    if missing:
        sys.stderr.write("perfbench: metrics not measured: %s\n" % ", ".join(missing))
        return 1
    if args.trace:
        # The traced run's own end-to-end figures, for the tracing overhead.
        e2e = {n: measured[n] for n in metric_names(False) if n in measured}
        print("traced_end_to_end " + json.dumps(e2e))
    result["metrics"] = {n: measured[n] for n in names}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
