#!/usr/bin/env python3
"""Smoke test of the VN2 benchmark at reduced scale.

    python3 perfbench/test_smoke.py

Runs every workload through perfbench/run.py with --smoke, untraced and
traced, and asserts that every metric BENCHMARK.json declares is printed
with its unit and that every output check passes. It then corrupts one
NNLS weight before the diagnose checks and asserts the checker counts it.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed_metrics(lines):
    """name -> unit of every `metric <name> <value> <unit>` line."""
    found = {}
    for line in lines:
        match = re.fullmatch(r"metric (\S+)\s+(\S+) (\S+)", line)
        if match:
            found[match.group(1)] = match.group(3)
    return found


class SmokeTest(unittest.TestCase):
    def test_every_metric_prints_with_its_unit_and_checks_pass(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run_bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    printed = printed_metrics(lines)
                    self.assertEqual(
                        sorted(result["metrics"]),
                        sorted(m["name"] for m in declared))
                    for metric in declared:
                        name, unit = metric["name"], metric["unit"]
                        self.assertEqual(printed.get(name), unit, name)
                        self.assertEqual(result["metrics"][name]["unit"], unit)

    def test_corrupted_weight_counts_as_failed(self):
        lines, result = run_bench("diagnose", 1, "--corrupt")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["failed_frac"]["value"], 0.0)
        self.assertTrue(any("every weight finite and >= 0" in line
                            for line in lines if line.startswith("check failed")))


if __name__ == "__main__":
    unittest.main()
