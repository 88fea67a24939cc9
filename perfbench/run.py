#!/usr/bin/env python3
"""parhuff benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a parhuff checkout. Builds perfbench/ (which pulls in
the parhuff libraries from ../src) in Release mode under the build
directory ($CARGO_TARGET_DIR if set, else .bench_build), runs one workload,
echoes its log, and prints as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. The metrics are the
end-to-end set of BENCHMARK.json with --trace 0 and the per-layer set with
--trace 1. Exits nonzero, without a result line, when the build fails, and
nonzero after the result line when any output was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (cheap once cached), then build the benchmark binary only."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "parhuff_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "parhuff_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    work_dir = os.path.join(build_dir, "run")
    try:
        binary = build(build_dir)
        os.makedirs(work_dir, exist_ok=True)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"error: benchmark build failed: {e}")
        return 2

    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    if not args.workload:
        log("error: --workload is required")
        return 2
    metrics = expected_metrics(args.trace)
    # Sockets are addressed relative to the checkout root, which keeps
    # their paths short whatever directory the checkout sits in.
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.relpath(work_dir, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: workload {args.workload} ran past {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if result is None or proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        log(f"error: benchmark exited {proc.returncode} without a result")
        return proc.returncode or 4
    got = result.get("metrics", {})
    missing = sorted(set(metrics) - set(got))
    extra = sorted(set(got) - set(metrics))
    wrong_unit = sorted(n for n in metrics
                        if n in got and got[n]["unit"] != metrics[n])
    if missing or extra or wrong_unit:
        sys.stdout.write(proc.stdout)
        log(f"error: metrics disagree with BENCHMARK.json: missing {missing}, "
            f"extra {extra}, wrong unit {wrong_unit}")
        return 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
