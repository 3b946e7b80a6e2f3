#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

Run from the root of a checkout:  python3 perfbench/test_perfbench.py

- Smoke mode builds the benchmark binary, makes a few calls of every workload in
  both modes, runs every output check and checks that each result names
  exactly the metrics BENCHMARK.json lists.
- Without hcep's sources beside it, the benchmark exits non-zero and
  prints no result line.
"""

import json
import os
import shutil
import subprocess
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


class PerfbenchTest(unittest.TestCase):
    def test_smoke_mode_passes_every_check(self):
        done = subprocess.run(RUN + ["--smoke"], cwd=ROOT, text=True,
                              capture_output=True, timeout=1500)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], done.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_run_prints_result_line_last(self):
        done = subprocess.run(
            RUN + ["--workload", "traffic", "--seed", "3", "--seconds", "1",
                   "--trace", "0"],
            cwd=ROOT, text=True, capture_output=True, timeout=1500)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in spec["end_to_end"]])
        for metric in spec["end_to_end"]:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"])
            self.assertGreater(got["value"], 0.0)

    def test_fails_without_hcep_sources(self):
        build_dir().mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                RUN + ["--workload", "sweep", "--seed", "1", "--seconds",
                       "1", "--trace", "0"],
                cwd=tmp, env=env, text=True, capture_output=True,
                timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
