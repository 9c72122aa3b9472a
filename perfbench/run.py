#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It builds the measuring program
(perfbench/CMakeLists.txt, from the library sources under src/) into
.bench_build/perfbench, runs it, and prints the program's informational
lines followed by one JSON object as the last line of standard output:
every end-to-end metric of BENCHMARK.json with --trace 0, every
per-layer metric with --trace 1. A per-layer metric the workload does
not exercise is reported as 0.

The program runs in a private mount namespace when `unshare` allows
one, so its state directory can be a tmpfs; otherwise the state stays
on the checkout's filesystem and the program says which one that is.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator],
            stdout=sys.stderr,
        )
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(
        ["cmake", "--build", str(BUILD), "--parallel", jobs], stdout=sys.stderr
    )
    if compiled.returncode != 0:
        fail("build failed")
    return BUILD / "perfbench"


def private_mounts_available():
    if shutil.which("unshare") is None:
        return False
    probe = subprocess.run(
        ["unshare", "-rm", "true"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return probe.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    program = build()
    command = [
        str(program),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--root", str(ROOT),
    ]
    if private_mounts_available():
        command = ["unshare", "-rm", "--", *command, "--tmpfs", "1"]
    try:
        run = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"measuring program exited with {run.returncode}")
    result = json.loads(lines[-1])

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        got = result["metrics"].get(name)
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {name} was not measured")
            got = {"value": 0, "unit": metric["unit"]}
        if got["unit"] != metric["unit"]:
            fail(f"{name} measured in {got['unit']}, declared {metric['unit']}")
        metrics[name] = {"value": got["value"], "unit": metric["unit"]}

    for line in lines[:-1]:
        print(line)
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
