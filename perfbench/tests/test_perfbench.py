#!/usr/bin/env python3
"""Smoke-length self-test of the offload-datapath benchmark.

    python3 perfbench/tests/test_perfbench.py

Run from the repository root; it builds the benchmark on first use. Checks
that every metric BENCHMARK.json names is printed with its unit, that a
deliberately wrong handler reply is caught, and that the traced stage
shares plus `stage.unattributed.share` tile the end-to-end time.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SMOKE_SECONDS = "2"


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.results = {}

    def result(self, workload, trace):
        key = (workload, trace)
        if key not in self.results:
            self.results[key] = run(workload, trace)
        return self.results[key]

    def assert_all_metrics(self, result, section):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec[section]})
        for m in self.spec[section]:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_printed_with_unit(self):
        for workload in ("unary_small", "stream_ingest"):
            code, result = self.result(workload, 0)
            self.assertEqual(code, 0, workload)
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assert_all_metrics(result, "end_to_end")
        code, result = self.result("unary_small", 1)
        self.assertEqual(code, 0)
        self.assert_all_metrics(result, "per_layer")

    def test_wrong_reply_is_caught(self):
        code, result = run("unary_small", 0, "--wrong-reply")
        self.assertNotEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_stage_shares_tile_end_to_end(self):
        code, result = self.result("unary_small", 1)
        self.assertEqual(code, 0)
        shares = [m["value"] for name, m in result["metrics"].items()
                  if name.startswith("stage.") and name.endswith(".share")]
        self.assertEqual(len(shares), 17)  # 16 stages + unattributed
        self.assertAlmostEqual(sum(shares), 1.0, delta=0.05)


if __name__ == "__main__":
    unittest.main()
