#!/usr/bin/env python3
"""The benchmark's own tests, at tiny size.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that the trace writer
round-trips, that every workload runs end to end in both modes and emits
exactly the metrics BENCHMARK.json names, that a perturbed result trips the
output check, and that run.py fails cleanly without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
BINARY = None


def tiny(workload, trace=0, extra=()):
    code, out, err = run.run_once(BINARY, workload, 7, 1, trace,
                                  ("--tiny", *extra), commit="test")
    return code, out, err


class TraceWriter(unittest.TestCase):
    def test_round_trip(self):
        done = subprocess.run([BINARY, "--self-test"], capture_output=True,
                              text=True, timeout=60)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("ok", done.stdout)


class Workloads(unittest.TestCase):
    def check_names(self, workload, trace, table):
        code, out, err = tiny(workload, trace)
        self.assertEqual(code, 0, err)
        record, result = run.parse_output(out)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = [(m["name"], m["unit"]) for m in SPEC[table]]
        got = [(name, m["unit"]) for name, m in result["metrics"].items()]
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertEqual(sorted(m), ["unit", "value"])
        self.assertEqual(sorted(record["samples"]), sorted(result["metrics"]))
        if table == "end_to_end":
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)
        return result

    def test_end_to_end(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check_names(w, 0, "end_to_end")

    def test_per_layer(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                result = self.check_names(w, 1, "per_layer")
                share = result["metrics"]["trace.unattributed_share"]["value"]
                self.assertLess(share, 0.05)


class OutputCheck(unittest.TestCase):
    def test_perturbed_stream_result_fails(self):
        code, out, _ = tiny("eclipse_tumbling", extra=("--perturb",))
        self.assertEqual(code, 1)
        record, result = run.parse_output(out)
        self.assertFalse(result["correct"])
        self.assertTrue(any("CRC" in e for e in record["errors"]))

    def test_perturbed_session_fails(self):
        code, out, _ = tiny("volta_al_session", extra=("--perturb",))
        self.assertEqual(code, 1)
        _, result = run.parse_output(out)
        self.assertFalse(result["correct"])


class Packaging(unittest.TestCase):
    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), d)
            shutil.copytree(run.HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, ".b"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "volta_sliding", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=d, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
