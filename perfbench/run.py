#!/usr/bin/env python3
"""Builds the benchmark package from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package in this directory is built in release mode into
``$CARGO_TARGET_DIR`` (``perfbench/target`` when unset); cargo's output goes
to standard error. The benchmark binary then runs the workload, and its
result line -- one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` -- is printed as the last line of standard output, after
checking its metric names against ``BENCHMARK.json``. A traced run
(``--trace 1``) writes its spans to
``$CARGO_TARGET_DIR/perfbench-spans/WORKLOAD-seedN.tsv``. The run is pinned
to one CPU and uses one malloc arena.

Exits non-zero without printing a result if the build fails, the run fails
or times out, or the printed metrics do not match ``BENCHMARK.json``.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def expected_metrics(trace):
    """The metric names and units BENCHMARK.json lists for this mode."""
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return 1

    # One CPU for the run: every entry-point call spawns its worker thread
    # afresh, and unpinned mc runs, whose workers could land on the other
    # vCPU, ran 20-25% slower than runs pinned to either vCPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spans = os.path.join(
        target, "perfbench-spans", f"{args.workload}-seed{args.seed}.tsv"
    )
    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload",
        args.workload,
        "--seed",
        args.seed,
        "--seconds",
        args.seconds,
        "--trace",
        args.trace,
        "--spans",
        spans,
    ]
    try:
        run = subprocess.run(
            command,
            # One malloc arena: otherwise peak memory depends on whether a
            # short-lived worker thread lands in a fresh arena, and the same
            # run reads 19.5 or 28 MiB.
            env=dict(env, MALLOC_ARENA_MAX="1"),
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"error: the run took longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"error: the run exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"].items()
        printed = {name: m["unit"] for name, m in metrics}
        finite = all(math.isfinite(m["value"]) for _, m in metrics)
        expected = expected_metrics(args.trace == "1")
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"error: cannot check the result: {e}", file=sys.stderr)
        return 1
    if printed != expected or not finite:
        print("error: printed metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
