#!/usr/bin/env python3
"""Tests of the archive benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py, then checks the timed(...) store
wrapper, the correctness gate, the metric names against BENCHMARK.json,
and that the command fails cleanly without the library's sources.
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
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    def test_timed_wrapper_leaves_same_blocks(self):
        proc = run(["--selftest", "--seed", "7"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("block sets", proc.stdout)
        self.assertIn("identical", proc.stdout)
        self.assertIn("selftest ok", proc.stdout)

    def test_corrupt_payload_fails_the_run(self):
        proc = run(["--workload", "ingest", "--seed", "3", "--seconds", "1",
                    "--trace", "0", "--inject-corruption"])
        self.assertNotEqual(proc.returncode, 0)
        out = result(proc)
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["failed"], 1)

    def test_metric_names_match_benchmark_json(self):
        spec = benchmark_spec()
        # serve is runnable but not gated; it prints the same metrics.
        names = [w["name"] for w in spec["workloads"]] + ["serve"]
        for workload in names:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                proc = run(["--workload", workload, "--seed", "5",
                            "--seconds", "2", "--trace", trace])
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                out = result(proc)
                self.assertTrue(out["correct"])
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {n: m["unit"] for n, m in out["metrics"].items()}
                self.assertEqual(got, want)
                if key == "end_to_end":
                    for name, metric in out["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)
                if workload == "serve" and trace == "1":
                    for name in ("encode.batches", "repair.waves",
                                 "repair.steps"):
                        self.assertEqual(out["metrics"][name]["value"], 0,
                                         name)
                if workload == "ingest" and trace == "1":
                    # The net layer is traced on a gated workload.
                    for name in ("net.client.put_ms.p50",
                                 "net.server.put_chunk_us.p50",
                                 "store.put.calls", "encode.batches"):
                        self.assertGreater(out["metrics"][name]["value"], 0,
                                           name)
                    for name in ("repair.waves", "repair.steps"):
                        self.assertEqual(out["metrics"][name]["value"], 0,
                                         name)
                if workload == "node_loss" and trace == "1":
                    # The write path is traced on a gated workload too.
                    for name in ("archive.write_chunk_us.p50",
                                 "archive.commit_ms", "encode.batches",
                                 "repair.waves", "archive.rebuild_ms"):
                        self.assertGreater(out["metrics"][name]["value"], 0,
                                           name)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "serve",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
