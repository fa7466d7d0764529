"""Self-check of the benchmark harness at tiny sizes (a few seconds per pass).

Drives all three workloads untraced and traced through ``run.py --profile
tiny`` and checks that every metric named in BENCHMARK.json is emitted with
its unit and that no check failed.  Standard library only:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_ACCEPTANCE_STAGES = ("classical-equilibrium", "classical-spectrum",
                          "projector-perturbation-n257")


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--profile", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class HarnessSelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def _check(self, result: dict, declared: list) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                res = _bench(w["name"], 0)
                self._check(res, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0.0, m["name"])
            with self.subTest(workload=w["name"], trace=1):
                res = _bench(w["name"], 1)
                self._check(res, self.spec["per_layer"])
                # run.py's stage names must match the stages the tiny profile runs
                if w["name"] == "acceptance":
                    for stage in TINY_ACCEPTANCE_STAGES:
                        self.assertGreater(res["metrics"][f"acceptance.{stage}.s"]["value"],
                                           0.0, stage)

    def test_no_sources_no_result(self):
        # a directory holding only BENCHMARK.json and perfbench/ has no fplab:
        # run.py must exit non-zero without printing a result
        with tempfile.TemporaryDirectory(prefix="_work-selfcheck-", dir=HERE) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("_work-*", "__pycache__"))
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "refine",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=tmp, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)

if __name__ == "__main__":
    unittest.main()
