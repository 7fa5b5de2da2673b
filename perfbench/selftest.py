#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # all tests, smoke pass included
    python3 perfbench/selftest.py -k Spec    # only the BENCHMARK.json checks

* Spec: BENCHMARK.json follows the metric-name, unit and size grammar and
  fits the run-time budget.
* Compare: the run-set comparison fails a worsening beyond a metric's bound
  and passes one within it; it fails a spread beyond the bound, setup_s's
  too.
* Smoke: every workload (the ungated chaos one too), untraced and traced,
  at smoke size (a few seconds each), prints every metric and passes its
  correctness gate.
* Isolated: run.py without the repository's src/ beside it exits nonzero
  without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
# Per-layer metrics are named <module>.<quantity>[.<statistic>].
LAYERS = {"host", "rt", "net", "wal", "lock", "acp", "mds", "rpc", "gen",
          "chaos", "trace"}
BUILD_ALLOWANCE_S = 2 * 300     # two cold builds
RUN_OVERHEAD_S = 6              # interpreter, calibration, drain, teardown
EVAL_BUDGET_S = 3420  # 4 + 22 runs per workload and two cold builds


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


class Spec(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()

    def test_keys_and_sizes(self):
        s = self.spec
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(s)), 64 * 1024)
        self.assertTrue(1 <= len(s["paths"]) <= 16)
        for p in s["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(1 <= len(s["command"]) <= 32)
        for arg in s["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)

    def test_names_units_and_whys(self):
        s = self.spec
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names are used once")
        for n in names:
            self.assertRegex(n, NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertIn(m["name"].split(".")[0], LAYERS)
            self.assertGreaterEqual(m["name"].count("."), 1)

    def test_setup_metric(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_time_budget(self):
        s = self.spec
        runs = 4 + 22 * len(s["workloads"])
        total = runs * (s["run_seconds"] + RUN_OVERHEAD_S) + BUILD_ALLOWANCE_S
        self.assertLessEqual(total, EVAL_BUDGET_S)


class Compare(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]

    def sets(self, scale):
        spec = {"end_to_end": [{"name": "ops_s", "unit": "1/s",
                                "better": "higher", "bound": 0.1}]}
        a = {"w": [{"ops_s": {"value": v}} for v in self.BASE]}
        b = {"w": [{"ops_s": {"value": v * scale}} for v in self.BASE]}
        return spec, a, b

    def test_worsening_beyond_bound_fails(self):
        _, problems = compare.check_sets(*self.sets(0.85))
        self.assertTrue(any("worse by" in p for p in problems), problems)

    def test_worsening_within_bound_passes(self):
        _, problems = compare.check_sets(*self.sets(0.95))
        self.assertEqual(problems, [])

    def test_improvement_passes(self):
        _, problems = compare.check_sets(*self.sets(1.3))
        self.assertEqual(problems, [])

    def test_lower_is_better_direction(self):
        self.assertAlmostEqual(compare.worse_by(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(compare.worse_by(10.0, 8.0, "higher"), 0.2)

    def test_wide_spread_fails(self):
        spec, _, _ = self.sets(1.0)
        noisy = {"w": [{"ops_s": {"value": v}}
                       for v in (60, 140, 80, 120, 100, 70, 130, 90, 110, 100)]}
        _, problems = compare.check_sets(spec, noisy)
        self.assertTrue(any("spread" in p for p in problems), problems)

    def test_setup_spread_is_checked_too(self):
        spec = {"end_to_end": [{"name": "setup_s", "unit": "s",
                                "better": "lower", "bound": 0.25}]}
        noisy = {"w": [{"setup_s": {"value": v}}
                       for v in (0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0)]}
        _, problems = compare.check_sets(spec, noisy)
        self.assertTrue(any("setup_s: spread" in p for p in problems), problems)


def run_py(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] +
        list(args), cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)


class Smoke(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]] + run.UNGATED
        for w in names:
            for trace, wanted in ((0, spec["end_to_end"]),
                                  (1, spec["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    p = run_py(REPO, "--workload", w, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace),
                               "--smoke")
                    self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                    last = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted",
                                                 "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(set(last["metrics"]),
                                     {m["name"] for m in wanted})
                    if trace == 0:
                        for v in last["metrics"].values():
                            self.assertGreater(v["value"], 0)


class Isolated(unittest.TestCase):
    def test_without_sources_exits_nonzero(self):
        root = os.path.join(REPO, ".bench_build", "selftest_isolated")
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(root, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), root)
        try:
            p = run_py(root, "--workload", "chaos", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
