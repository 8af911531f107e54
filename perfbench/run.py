#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload paper|train|fleet --seed N --seconds S [--trace 0|1]

Run from the repository root. The first run configures and builds the
simulator libraries and the `perfbench` binary into .bench_build/ (several
minutes); later runs rebuild only what changed. The binary's standard output
is passed through: a provenance line, the exact work counters of the first
batch, and as the last line one JSON object {correct, attempted, failed,
metrics}. Build logs go to standard error. README.md describes the workloads
and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper", "train", "fleet")


def bounded_int(lo, hi):
    def parse(text):
        if not (text.isascii() and text.isdigit()) or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(f"needs an integer in [{lo}, {hi}]")
        return int(text)
    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=bounded_int(0, 2**64 - 1))
    parser.add_argument("--seconds", required=True, type=bounded_int(1, 3600))
    parser.add_argument("--trace", default=0, type=bounded_int(0, 1))
    return parser.parse_args(argv)


def source_id():
    """The checkout's git commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def build():
    """Configures and builds the binary; returns its path, or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The last line must be the result object with every declared metric."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys " + ", ".join(sorted(result)))
    missing = expected_metrics(trace) - set(result["metrics"])
    if missing:
        raise ValueError("missing metrics " + ", ".join(sorted(missing)))


def main(argv):
    args = parse_args(argv)
    exe = build()
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=2 * args.seconds + 90)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: benchmark binary exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, OSError) as e:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: malformed result: {e}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
