#!/usr/bin/env python3
"""Smoke tests of the host-time benchmark.

    python3 perfbench/test_smoke.py

Runs every workload once in smoke mode (one pass at scale 0.1), untraced
and traced, through run.py, and asserts that each run passes its output
checks and prints exactly the metrics BENCHMARK.json names, each with its
unit. Also asserts that a directory holding only BENCHMARK.json and
perfbench/ fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, trace: int):
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                proc = run(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in wanted})
                for m in result["metrics"].values():
                    self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_metrics(self):
        self.check(0)

    def test_per_layer_metrics(self):
        self.check(1)

    def test_fails_without_sources(self):
        build_dir = ROOT / ".bench_build"
        build_dir.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("array-1024", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
