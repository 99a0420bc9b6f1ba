#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload briefly through run.py (about four minutes on a
4-core host, plus the first build) and checks the contract the benchmark
promises: well-formed names in BENCHMARK.json, every metric printed by
name, the seed reaching the simulator, tracing leaving the simulated
outputs untouched, and a failed check counted as failed operations.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DIGEST = re.compile(r"sim_digest ([0-9a-f]{16})")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, seed, trace, *extra, cwd=ROOT):
    """Runs the benchmark for one second; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def digest_of(lines):
    for line in lines:
        match = DIGEST.search(line)
        if match:
            return match.group(1)
    raise AssertionError("no sim_digest line in output")


class SpecTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                names.append(metric["name"])
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_end_to_end_bounds(self):
        spec = load_spec()
        by_name = {m["name"]: m for m in spec["end_to_end"]}
        self.assertEqual(by_name["setup_s"]["unit"], "s")
        self.assertEqual(by_name["setup_s"]["better"], "lower")
        for metric in spec["end_to_end"]:
            self.assertGreater(metric["bound"], 0)
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertLessEqual(metric["bound"], by_name["setup_s"]["bound"])


class RunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        cls.runs = {}
        for workload in [w["name"] for w in cls.spec["workloads"]]:
            for seed, trace in ((1, 0), (2, 0), (1, 1)):
                cls.runs[workload, seed, trace] = run_bench(workload, seed,
                                                            trace)

    def result(self, key):
        code, lines = self.runs[key]
        self.assertEqual(code, 0, "run %s failed" % (key,))
        return lines, json.loads(lines[-1])

    def test_every_metric_is_printed_with_its_unit(self):
        for (workload, seed, trace) in self.runs:
            lines, result = self.result((workload, seed, trace))
            wanted = self.spec["per_layer" if trace else "end_to_end"]
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in wanted})
            for metric in wanted:
                value = result["metrics"][metric["name"]]
                self.assertEqual(value["unit"], metric["unit"])
                self.assertIsInstance(value["value"], (int, float))
                self.assertTrue(any(line.split()[:1] == [metric["name"]]
                                    for line in lines[:-1]),
                                "%s not printed" % metric["name"])

    def test_outputs_are_correct_and_nothing_fails(self):
        for key in self.runs:
            _, result = self.result(key)
            self.assertTrue(result["correct"], key)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0, key)

    def test_end_to_end_metrics_are_never_zero(self):
        for (workload, seed, trace) in self.runs:
            if trace:
                continue
            _, result = self.result((workload, seed, trace))
            for name, value in result["metrics"].items():
                self.assertGreater(value["value"], 0, (workload, name))

    def test_changed_seed_changes_sim_digest(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            one, _ = self.result((workload, 1, 0))
            two, _ = self.result((workload, 2, 0))
            self.assertNotEqual(digest_of(one), digest_of(two), workload)

    def test_tracing_does_not_perturb_the_model(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            untraced, _ = self.result((workload, 1, 0))
            traced, _ = self.result((workload, 1, 1))
            self.assertEqual(digest_of(untraced), digest_of(traced), workload)

    def test_traced_run_writes_spans(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            path = os.path.join(ROOT, ".bench_build", "traces",
                                "%s-seed1.jsonl" % workload)
            with open(path) as f:
                spans = [json.loads(line) for line in f]
            host = [s for s in spans if s["kind"] == "host"]
            names = {s["name"] for s in host}
            self.assertIn("setup.build", names)
            for span in host:
                self.assertEqual(span["workload"], workload)
                self.assertLessEqual(span["host_start_ms"], span["host_end_ms"])
                self.assertLess(span["parent"], span["id"])
            if workload != "parsim":
                self.assertIn("sim.run_until", names)
                self.assertIn("obs.snapshot", names)
                self.assertTrue(any(s["kind"] == "sim" for s in spans))

    def test_violated_check_counts_as_failed_operations(self):
        code, lines = run_bench("parsim", 1, 0, "--violate")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("conservation" in l and "FAILED" in l
                            for l in lines))


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, lines = run_bench("parsim", 1, 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        for line in lines:
            self.assertFalse(line.startswith("{"), "printed a result")


if __name__ == "__main__":
    unittest.main()
