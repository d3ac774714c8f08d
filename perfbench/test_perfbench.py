#!/usr/bin/env python3
"""Self-checks of the repository benchmark.

    python3 perfbench/test_perfbench.py

Builds the driver (as run.py does) and checks that:
  * the simulated values ('# sim' lines) repeat exactly for a seed, across
    runs and across 1 vs 2 client/pool threads, and change with the seed;
  * the correctness gate fails a run whose reference digest is corrupted;
  * the driver refuses HNDP_* configuration variables;
  * the metric names and units match BENCHMARK.json in both modes;
  * run.py fails without a result when the engine sources are missing.
Takes about two minutes.
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

BINARY = None


def drive(workload, seed, *extra, env=None):
    """Runs the driver for one short phase; returns (exit code, stdout)."""
    out_dir = os.path.join(run.ROOT, ".bench_build", "perfbench-test")
    os.makedirs(out_dir, exist_ok=True)
    p = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--setups", "1",
                        "--out-dir", out_dir, *extra],
                       capture_output=True, text=True, env=env)
    return p.returncode, p.stdout


def sim_lines(stdout):
    return [l for l in stdout.splitlines() if l.startswith("# sim ")]


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class DeterminismTest(unittest.TestCase):
    def check_workload(self, workload):
        rc, base = drive(workload, 3, "--trace", "0")
        self.assertEqual(rc, 0)
        self.assertGreater(len(sim_lines(base)), 3)
        rc, again = drive(workload, 3, "--trace", "0")
        self.assertEqual(rc, 0)
        self.assertEqual(sim_lines(base), sim_lines(again))
        rc, serial = drive(workload, 3, "--trace", "0", "--threads", "1")
        self.assertEqual(rc, 0)
        self.assertEqual(sim_lines(base), sim_lines(serial))
        rc, other = drive(workload, 4, "--trace", "0")
        self.assertEqual(rc, 0)
        self.assertNotEqual(sim_lines(base), sim_lines(other))

    def test_job_hybrid(self):
        self.check_workload("job-hybrid")

    def test_job_sweep(self):
        self.check_workload("job-sweep")

    def test_kv_ingest(self):
        self.check_workload("kv-ingest")


class GateTest(unittest.TestCase):
    def test_corrupted_reference_fails(self):
        rc, out = drive("job-hybrid", 1, "--trace", "0", "--corrupt-reference")
        self.assertNotEqual(rc, 0)
        r = result(out)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)

    def test_refuses_hndp_environment(self):
        env = dict(os.environ, HNDP_THREADS="2")
        rc, out = drive("kv-ingest", 1, "--trace", "0", env=env)
        self.assertEqual(rc, 2)
        self.assertNotIn("{", out)


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            rc, out = drive("kv-ingest", 1, "--trace", trace)
            self.assertEqual(rc, 0)
            r = result(out)
            self.assertEqual(sorted(r), ["attempted", "correct", "failed",
                                         "metrics"])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            self.assertEqual(got, want)

    def test_fails_without_engine_sources(self):
        build_dir = os.path.join(run.ROOT, ".bench_build")
        with tempfile.TemporaryDirectory(dir=build_dir) as bare:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py",
                                "--workload", "kv-ingest", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                               cwd=bare, capture_output=True, text=True,
                               timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn("{", p.stdout)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
