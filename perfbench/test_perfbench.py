#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json names valid, unique metrics; that every workload
emits every end-to-end metric untraced and every per-layer metric traced,
with the declared units; that the output check trips on a perturbed
quality vector; and that the traced run writes valid trace-event JSON.
Builds the driver through run.py first.  Takes about three minutes on four
cores, because every workload runs once untraced and once traced.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, seconds="1"):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", seconds, "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stderr


class Spec(unittest.TestCase):
    def test_metric_names_and_units(self):
        metrics = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in metrics] + WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])


class Runs(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.results[workload, trace] = run(workload, trace)

    def check_emits(self, trace, declared):
        for workload in WORKLOADS:
            code, result, err = self.results[workload, trace]
            self.assertEqual(code, 0, err)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            got = result["metrics"]
            self.assertEqual(set(got), {m["name"] for m in declared}, workload)
            for m in declared:
                self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
                self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_untraced_emits_every_end_to_end_metric(self):
        self.check_emits(0, SPEC["end_to_end"])
        for workload in WORKLOADS:
            for name, m in self.results[workload, 0][1]["metrics"].items():
                self.assertGreater(m["value"], 0, (workload, name))

    def test_traced_emits_every_per_layer_metric(self):
        self.check_emits(1, SPEC["per_layer"])

    def test_counts_repeat_exactly(self):
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        code, again, err = run("mc_ti2k", 1)
        self.assertEqual(code, 0, err)
        first = self.results["mc_ti2k", 1][1]["metrics"]
        for name in counts:
            self.assertEqual(again["metrics"][name]["value"], first[name]["value"], name)

    def test_trace_file_is_trace_event_json(self):
        for workload in WORKLOADS:
            path = os.path.join(ROOT, ".bench_build", "perfbench",
                                "trace-%s-s1.json" % workload)
            with open(path) as f:
                trace = json.load(f)
            events = trace["traceEvents"]
            self.assertTrue(events)
            names = {e["name"] for e in events}
            self.assertIn("setup", names)
            self.assertIn("measured", names)
            for e in events:
                self.assertEqual(e["ph"], "X")
                self.assertGreaterEqual(e["dur"], 0)
                self.assertLessEqual(e["args"]["self_us"], e["dur"] + 1e-3)
                self.assertLess(e["args"]["parent"], len(events))


class OutputCheck(unittest.TestCase):
    def test_perturbed_first_repetition_fails_the_traced_comparison(self):
        code, result, _ = run("ti5k_flow", 1, "--perturb-rep", "0")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_perturbed_monte_carlo_fails_the_one_thread_reference(self):
        code, result, _ = run("mc_ti2k", 0, "--perturb-rep", "0")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
