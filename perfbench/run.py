#!/usr/bin/env python3
"""Builds and runs the VN2 benchmark.

    python3 perfbench/run.py --workload simulate|train|diagnose --seed N \
        --seconds S --trace 0|1 [--smoke] [--corrupt]

Run from the repository root. The first run configures and builds
perfbench/ (and the libraries it links) into .bench_build/; later runs
only rebuild what changed. The benchmark's own lines are echoed, and the
last line printed is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. Exits non-zero, without a result,
if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the vn2bench target incrementally."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "vn2bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD_DIR / "vn2bench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["simulate", "train", "diagnose"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale, for the smoke test")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one diagnosis before it is checked")
    args = parser.parse_args()

    wanted = declared_metrics(args.trace)
    binary = build()
    work_dir = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--git-sha", git_sha()]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt:
        command.append("--corrupt")
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"vn2bench exited with {proc.returncode}")
        return 1

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if result is None:
        log("vn2bench printed no result line")
        return 1

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            log(f"metric {metric['name']} missing or not in {metric['unit']}")
            return 1
        metrics[metric["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as error:
        log(f"run.py: {error}")
        sys.exit(1)
