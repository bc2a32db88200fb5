#!/usr/bin/env python3
"""Run one workload of the GoAT benchmark and print its metrics.

    python3 perfbench/run.py --workload detect|soak|durable --seed N \
        --seconds S --trace 0|1 [--quick]

Run from the root of a checkout. The first run builds the benchmark
runner (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR or
.bench_build. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run and writes its spans and layer table
next to the build. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only
when the correctness gate passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("detect", "soak", "durable")
SETUP_REPEATS = 7
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dirs():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench"), os.path.join(base, "perfbench-out")


def build(build_dir):
    """Configure (once) and build the runner; True on success."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [cmd] if not os.path.exists(
        os.path.join(build_dir, "CMakeCache.txt")) else []
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_runner", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def time_setup(runner, args, out_dir):
    """Median wall time of process start to the first campaign call."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rc = subprocess.run([runner, "--workload", args.workload,
                             "--seed", str(args.seed), "--seconds", "0",
                             "--trace", "0", "--out", out_dir,
                             "--setup-only"], timeout=60).returncode
        times.append(time.perf_counter() - t0)
        if rc:
            return None
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true",
                    help="shortened campaigns (the benchmark's own tests)")
    args = ap.parse_args()

    try:
        end_to_end, per_layer = load_spec()
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    build_dir, out_dir = build_dirs()
    if not build(build_dir):
        log("build failed")
        return 2
    os.makedirs(out_dir, exist_ok=True)
    runner = os.path.join(build_dir, "perfbench_runner")

    setup_s = None
    if args.trace == 0:
        setup_s = time_setup(runner, args, out_dir)
        if setup_s is None:
            log("set-up failed")
            return 2

    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"runner printed no result (exit {proc.returncode})")
        return 2
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    expected = per_layer if args.trace else end_to_end
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != expected:
        log(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
            f"expected {sorted(expected.items())}")
        return 2
    if setup_s is not None:
        print(f"# setup_s={setup_s:.6f} s (median of {SETUP_REPEATS} launches)")
    print(json.dumps(result))
    ok = proc.returncode == 0 and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
