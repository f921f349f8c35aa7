#!/usr/bin/env python3
"""Smoke tests for the task-plane benchmark.

    python3 perfbench/test_smoke.py

Builds the driver (as run.py does), runs every workload at its tiny size
for one second, and checks the output contract: the last stdout line is one
JSON object with exactly correct/attempted/failed/metrics; an untraced run
emits every end-to-end metric of BENCHMARK.json with its unit, a traced run
every per-layer metric; the seed code passes every check; and a runner that
returns one wrong result is counted as a failure.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own launcher)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Timings of a step only one workload takes, and that workload.
OWN_STEPS = {
    "reprioritize_p50_ms": "campaign_threads",
    "eqsql.update_priority_ms.p50": "campaign_threads",
    "lookup_p50_ms": "durable_lsm",
    "lookup_p99_ms": "durable_lsm",
}


def invoke(workload, trace, *extra):
    """Run the driver at tiny size; returns (metadata, result) objects."""
    cmd = [run.BINARY, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny",
           "--out-dir", os.path.join(".bench_build", "perfbench-smoke"), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def check_metrics(self, result, spec_metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in spec_metrics}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                meta, result = invoke(w["name"], 0)
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for name in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][name["name"]]["value"], 0,
                                       name["name"])
                for key in ("commit", "build_type", "compiler", "nproc", "seed"):
                    self.assertIn(key, meta["meta"])

    def test_traced_run_emits_every_per_layer_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                _, result = invoke(w["name"], 1)
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])
                # A step's timing is measured on the workload that takes the
                # step, and reads 0 on every other one.
                for name, owner in OWN_STEPS.items():
                    value = result["metrics"][name]["value"]
                    if w["name"] == owner:
                        self.assertGreater(value, 0, name)
                    else:
                        self.assertEqual(value, 0, name)

    def test_wrong_runner_result_is_a_failure(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                _, result = invoke(w["name"], 0, "--inject-wrong-result")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
