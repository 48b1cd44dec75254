"""Tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

from the repository root. They check BENCHMARK.json against the
benchmark contract and the layer map, run the OCaml unit checks, run
every workload at tiny size traced and untraced, and parse back what
the benchmark writes.
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
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ["churn", "idle35k", "rtsig", "bulk"]
SEED = 5


def load(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class Spec(unittest.TestCase):
    def setUp(self):
        self.spec = load("BENCHMARK.json")
        self.layers = load("perfbench/layer_map.json")

    def test_keys_and_limits(self):
        s = self.spec
        self.assertEqual(
            set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in s["workloads"]], WORKLOADS)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]] + WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in s["end_to_end"]))

    def test_layer_map_covers_every_metric(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        mapped = [n for row in self.layers["layers"] for n in row["metrics"]]
        self.assertEqual(len(mapped), len(set(mapped)))
        self.assertEqual(set(mapped), {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(set(self.layers["workloads"]), set(WORKLOADS))
        for row in self.layers["layers"]:
            self.assertTrue(set(row["moves"]) <= e2e, row["moves"])
            for w in row["most_work_on"]:
                self.assertIn(w, WORKLOADS)

    def test_reference_has_every_workload(self):
        ref = load("perfbench/reference.json")
        self.assertEqual(ref["seed"], 42)
        self.assertEqual(set(ref["workloads"]), set(WORKLOADS))
        keys = [set(v) for v in ref["workloads"].values()]
        self.assertTrue(all(k == keys[0] for k in keys))
        for k in keys[0]:
            self.assertRegex(k, NAME_RE)


class TinyRuns(unittest.TestCase):
    """Every workload at tiny size passes parity, determinism and the
    invariants, traced and untraced, and reports every metric."""

    spec = load("BENCHMARK.json")

    def check(self, workload, trace):
        proc = run(["--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
                    "--trace", str(trace), "--size", "tiny"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(line["correct"], True)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        section = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(line["metrics"]), [m["name"] for m in section])
        for m in section:
            got = line["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        written = load(f".perfbench/report-{workload}-seed{SEED}-trace{trace}.json")
        self.assertEqual(written["result"], line)
        self.assertEqual(written["failures"], [])
        if trace:
            events = load(f".perfbench/trace-{workload}-seed{SEED}.json")["traceEvents"]
            names = {e["name"] for e in events}
            self.assertTrue({"Engine.create", "Httperf.start", "Engine.run", "generate"} <= names)
        if workload in ("churn", "rtsig", "bulk") and not trace:
            self.assertGreater(line["metrics"]["latency_p50_ms"]["value"], 0)

    def test_churn(self):
        self.check("churn", 0)
        self.check("churn", 1)

    def test_idle35k(self):
        self.check("idle35k", 0)
        self.check("idle35k", 1)

    def test_rtsig(self):
        self.check("rtsig", 0)
        self.check("rtsig", 1)

    def test_bulk(self):
        self.check("bulk", 0)
        self.check("bulk", 1)


class UnitTests(unittest.TestCase):
    def test_ocaml_unit_tests(self):
        build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/unit_tests.exe"],
                               cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(build.returncode, 0, build.stderr)
        proc = subprocess.run([os.path.join("_build", "default", "perfbench", "unit_tests.exe")],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class Refusals(unittest.TestCase):
    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".perfbench", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "churn", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_unknown_workload_is_refused(self):
        proc = run(["--workload", "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"])
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
