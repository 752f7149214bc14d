#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark harness.

Run from the root of the repository:

    python3 -m unittest perfbench/test_harness.py

It runs every workload on tiny inputs (`--smoke`) and checks that the
result line has the documented shape, that every metric named in
`BENCHMARK.json` is emitted with its unit, that the oracle gate trips on
a corrupted read, and that the benchmark refuses to run without the
repository's sources. It also runs the benchmark crate's unit tests.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bench(workload, trace=0, *extra, cwd=ROOT, env=None):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke"] + list(extra)
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def last_json(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class HarnessTest(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self):
        s = spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in s[key]}
            for w in (x["name"] for x in s["workloads"]):
                with self.subTest(workload=w, trace=trace):
                    done = bench(w, trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    out = last_json(done)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(set(out["metrics"]), set(declared))
                    for name, m in out["metrics"].items():
                        self.assertEqual(m["unit"], declared[name], name)
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_oracle_gate_trips_on_a_corrupted_read(self):
        for w in ("correct_remote", "serve_mix"):
            with self.subTest(workload=w):
                done = bench(w, 0, "--corrupt")
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                self.assertFalse(last_json(done)["correct"])

    def test_refuses_to_run_without_the_repository(self):
        bare = os.path.join(ROOT, ".bench_work", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "target"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
            cmd = [sys.executable, "perfbench/run.py", "--workload", "correct_remote",
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
            done = subprocess.run(cmd, cwd=bare, env=env, capture_output=True, text=True,
                                  timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_crate_unit_tests_pass(self):
        env = dict(os.environ)
        env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
        done = subprocess.run(
            ["cargo", "test", "--offline", "--quiet", "--manifest-path",
             os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout[-2000:] + done.stderr[-2000:])


if __name__ == "__main__":
    unittest.main()
