"""End-to-end tests of the benchmark command itself.

Each test drives perfbench/run.py the way the benchmark is run, with
--quick (shortened campaigns) and a one-second window:

* every metric BENCHMARK.json names is printed, with its unit;
* a minimal-length run of each workload passes the correctness gate;
* the traced run writes its spans and layer table;
* without the program's sources the command fails without a result.

Run with `python3 -m unittest -v test_run` from this directory, or via
ctest in a perfbench build configured with -DPERFBENCH_TESTS=ON.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def spec_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, env=None):
    """Run perfbench/run.py of the tree at cwd."""
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


class BenchmarkCommand(unittest.TestCase):
    def check(self, workload, trace):
        spec = spec_file()
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = spec["per_layer"] if trace else spec["end_to_end"]
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in want))
        for m in want:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))
        if not trace:
            for m in want:
                self.assertGreater(got[m["name"]]["value"], 0, m["name"])
        info = json.loads(proc.stdout.splitlines()[0])["info"]
        for key in ("nproc", "build_type", "compiler", "seed"):
            self.assertIn(key, info)
        self.assertNotEqual(info["build_type"], "Debug")
        return proc

    def test_detect_end_to_end(self):
        self.check("detect", 0)

    def test_soak_end_to_end(self):
        self.check("soak", 0)

    def test_durable_end_to_end(self):
        self.check("durable", 0)

    def test_detect_traced(self):
        self.check("detect", 1)

    def test_soak_traced(self):
        self.check("soak", 1)

    def test_durable_traced_writes_spans_and_table(self):
        proc = self.check("durable", 1)
        lines = [l for l in proc.stdout.splitlines()
                 if l.startswith("# spans: ")]
        self.assertEqual(len(lines), 1)
        spans_path = lines[0].split()[2]
        table_path = lines[0].split()[4]
        with open(spans_path) as f:
            spans = [json.loads(l) for l in f]
        self.assertTrue(any(s["name"] == "campaign.runCampaign"
                            for s in spans))
        for s in spans:
            self.assertLessEqual(s["start_ns"], s["end_ns"])
            if s["parent"] >= 0:
                p = spans[s["parent"]]
                self.assertLessEqual(p["start_ns"], s["start_ns"])
                self.assertLessEqual(s["end_ns"], p["end_ns"])
        with open(table_path) as f:
            self.assertIn("engine.runCampaignIteration", f.read())

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = run("detect", 0, cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
