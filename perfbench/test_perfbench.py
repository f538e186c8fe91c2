#!/usr/bin/env python3
"""Tests of the hypercast benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; the first test to run a workload builds
the benchmark (see run.py). Each workload run here is short (1 s).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, seed=7, trace=0, seconds=1, corrupt=0):
    """Runs one workload; returns (exit code, result object, report lines)."""
    run = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--corrupt", str(corrupt)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = run.stdout.splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output\n{run.stderr[-3000:]}")
    return run.returncode, json.loads(lines[-1]), lines[:-1]


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class ContractTest(unittest.TestCase):
    def test_spec_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_list_prints_every_metric_with_unit_and_direction(self):
        out = subprocess.run([sys.executable, RUN, "--list"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout
        rows = {line.split()[0]: line.split() for line in out.splitlines()
                if line.startswith("  ")}
        s = spec()
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertIn(m["name"], rows)
            self.assertEqual(rows[m["name"]][1], m["unit"])
            self.assertEqual(rows[m["name"]][2], m["better"])

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_hot", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(run.returncode, 0)
            self.assertNotIn('"correct"', run.stdout)


class WorkloadTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        s = spec()
        for w in s["workloads"]:
            code, result, _ = bench(w["name"])
            self.assertEqual(code, 0, w["name"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in s["end_to_end"]})
            self.assertTrue(all(v > 0 for v in values(result).values()),
                            (w["name"], values(result)))

    def test_simulated_figures_repeat_exactly_for_a_seed(self):
        sim = ("sim_makespan_us", "sim_max_delay_us", "sim_avg_delay_us")
        for workload in ("des_contended", "stripe_faulted", "serve_cold"):
            a = values(bench(workload, seed=11)[1])
            b = values(bench(workload, seed=11)[1])
            c = values(bench(workload, seed=12)[1])
            for name in sim:
                self.assertEqual(a[name], b[name], (workload, name))
            self.assertNotEqual(a["sim_makespan_us"], c["sim_makespan_us"])
        a = values(bench("des_contended", seed=11, trace=1)[1])
        b = values(bench("des_contended", seed=11, trace=1)[1])
        for name in ("sim.events_per_op", "sim.blocked_acq_per_op",
                     "sim.blocked_us_per_op"):
            self.assertEqual(a[name], b[name], name)
            self.assertGreater(a[name], 0, name)
        self.assertGreater(a["wall.ops_per_s"], 0)

    def test_corrupt_output_is_counted_as_failed(self):
        for workload, corrupt in (("serve_hot", 1), ("stripe_faulted", 2)):
            code, result, report = bench(workload, corrupt=corrupt)
            self.assertNotEqual(code, 0)
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], corrupt, workload)
            self.assertTrue(any(line.startswith("# fail_frac")
                                for line in report))

    def test_traced_run_reports_layers_and_unattributed_time(self):
        code, result, report = bench("stripe_faulted", trace=1)
        self.assertEqual(code, 0)
        v = values(result)
        self.assertEqual(set(v), {m["name"] for m in spec()["per_layer"]})
        self.assertGreater(v["stripe.plan_us_mean"], 0)
        self.assertGreater(v["code.encode_gbps"], 0)
        self.assertGreaterEqual(v["stripe_faulted.unattributed_frac"], 0)
        self.assertLess(v["stripe_faulted.unattributed_frac"], 1)
        self.assertTrue(any(line.startswith("# span ") for line in report))
        self.assertTrue(os.path.exists(os.path.join(
            ROOT, ".bench_build", "traces", "stripe_faulted-seed7.json")))


if __name__ == "__main__":
    unittest.main()
