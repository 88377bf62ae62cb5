"""Smoke test of the benchmark at toy size.

    python3 -m pytest bench/test_smoke.py

Runs every workload of BENCHMARK.json for one round, untraced and traced,
and checks that the result line passes its own output checks and names
exactly the metrics, with the units, that BENCHMARK.json declares. Also
checks that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--toy"]
    return subprocess.run(command + args, cwd=cwd, capture_output=True, text=True, timeout=120)


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_the_declared_metrics(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr[-2000:])
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(Path(tmp), SPEC["workloads"][0]["name"], 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
