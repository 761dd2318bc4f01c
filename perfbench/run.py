#!/usr/bin/env python3
"""ASCEND end-to-end benchmark: build, run one workload, check the result.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
repository's libraries plus the perfbench binaries (CMake, the repository's
own build definition and defaults) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs rebuild incrementally.
Each workload runs in its own process. The last line of standard output is
the workload's JSON result; the exit code is nonzero when the build failed or
any correctness, accounting or load-generator check failed, or when the
result does not list exactly the metrics BENCHMARK.json declares.

The benchmark sets no OMP_NUM_THREADS and no ASCEND_* variable: it measures
the build as it ships and records the environment it found in the host line.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["frontdoor-small", "vit-mixed", "dse-sweep"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (a no-op when cached) and build incrementally; the build's
    output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", str(os.cpu_count() or 1),
                    "--target", "perfbench", "perfbench_traced"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result must be exactly what BENCHMARK.json declares; returns errors."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    declared = declared_metrics(trace)
    got = result["metrics"]
    for name in sorted(set(declared) - set(got)):
        errors.append(f"missing metric {name}")
    for name in sorted(set(got) - set(declared)):
        errors.append(f"undeclared metric {name}")
    for name, m in got.items():
        if name in declared and m.get("unit") != declared[name]:
            errors.append(f"{name}: unit {m.get('unit')} != {declared[name]}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r} is not a finite number")
    return errors


def run_workload(build_dir, workload, seed, seconds, trace):
    binary = os.path.join(build_dir, "perfbench_traced" if trace else "perfbench")
    workdir = os.path.join(build_dir, f"run-{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0", "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    errors = check_result(lines[-1], trace) if lines and lines[-1] else ["no result line"]
    for e in errors:
        log(f"{workload}: {e}")
    if lines and lines[-1].startswith("{"):
        print(lines[-1], flush=True)
    if proc.returncode != 0:
        log(f"{workload}: exit code {proc.returncode}")
        return 1
    return 1 if errors else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    build_dir = os.path.abspath(build_dir)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed: {e}")
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    rc = 0
    for w in workloads:
        rc |= run_workload(build_dir, w, args.seed, args.seconds, bool(args.trace))
    return rc


if __name__ == "__main__":
    sys.exit(main())
