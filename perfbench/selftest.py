"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with the metric catalogue, that every
workload emits every named metric with its unit in both modes (n = 3 Boolean
session, a 32-function tall file, 5 random ensembles), that a bad op is
counted as failed rather than dropped, that CLI children are held to their
address-space limit, and that the benchmark refuses to run without a source
tree.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import REF_S, pin_threads  # noqa: E402

pin_threads(1)

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER, REPORTED_ONLY  # noqa: E402

if run.load_program(ROOT) is None:
    sys.exit(f"no qfilter source tree under {ROOT}")

from workloads import TINY, WORKLOADS, TallCli  # noqa: E402

WORK = HERE / ".work" / "selftest"
MAX_OPS = {"boolean-cli": 2, "tall-cli": 2, "random-lib": 5}


def make(cls, seed: int = 7):
    return cls(ROOT, WORK / cls.name, seed, TINY)


class MalformedInput(TallCli):
    """Op 1 reads a malformed ensemble file, which the CLI rejects with exit code 2."""

    def setup(self) -> None:
        super().setup()
        self.good = self.ensemble
        self.bad = self.work_dir / "bad.json"
        self.bad.write_text('{"dimension": 2, "states": [], "target_index": 0}')

    def prepare(self, index: int):
        self.ensemble = self.bad if index == 1 else self.good
        return super().prepare(index)


class SelfTest(unittest.TestCase):
    def assert_metrics(self, line: dict, catalogue) -> None:
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]), [m.name for m in catalogue])
        for metric in catalogue:
            entry = line["metrics"][metric.name]
            self.assertEqual(entry["unit"], metric.unit, metric.name)
            self.assertIsInstance(entry["value"], (int, float), metric.name)
        json.dumps(line, allow_nan=False)

    def test_benchmark_json_matches_catalogue(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        gated = [w["name"] for w in spec["workloads"]]
        self.assertLessEqual(set(gated), set(WORKLOADS))
        self.assertEqual(list(WORKLOADS), list(run.WORKLOAD_NAMES))
        for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            self.assertEqual(listed, [(m.name, m.unit, m.better) for m in catalogue])
        names = {e["name"] for e in spec["end_to_end"]}
        for metric in PER_LAYER:
            for moved in filter(None, (s.strip() for s in metric.moves.split(","))):
                self.assertIn(moved, names, metric.name)

    def test_end_to_end_emits_every_metric(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                loop, values, _, catalogue = run.end_to_end(make(cls), 60.0, MAX_OPS[name])
                self.assertEqual(loop.failures, [])
                self.assertEqual(loop.attempted, MAX_OPS[name])
                self.assertEqual(catalogue, END_TO_END + REPORTED_ONLY)
                self.assertEqual(values["error_rate"], 0.0)
                self.assertGreater(values["op_s.p50"], 0.0)
                self.assertAlmostEqual(
                    values["op_s.p50"],
                    values["op_s.p50.wall"] * REF_S / values["host.ref_s"],
                )
                self.assert_metrics(run.result_line(loop, values, END_TO_END), END_TO_END)

    def test_trace_emits_every_metric(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                workload = make(cls)
                trace_path = WORK / f"{name}-trace.json"
                loop, values, _, _ = run.per_layer(workload, 60.0, trace_path, MAX_OPS[name])
                self.assertEqual(loop.failures, [])
                self.assert_metrics(run.result_line(loop, values, PER_LAYER), PER_LAYER)
                self.assertGreater(values["simulate.simulate.s"], 0.0)
                self.assertGreater(values["op.n_states"], 0)
                spans = json.loads(trace_path.read_text())["spans"]
                self.assertTrue(spans)
                if name == "boolean-cli":
                    self.assertEqual(values["strategies.optimal_filtering.calls"], 5)
                    self.assertEqual(values["strategies.failure_curve.points"], TINY.sweep_steps)
                    self.assertEqual(values["neumark.success_gram.bytes"], 8**2 * 16)
                    self.assertGreater(values["cli.sweep.s"], 0.0)
                if name == "random-lib":
                    self.assertEqual(values["cli.import_s"], 0.0)

    def test_bad_op_is_counted(self):
        loop, values, _, _ = run.end_to_end(make(MalformedInput), 60.0, 3)
        self.assertEqual(loop.attempted, 3)
        self.assertEqual(len(loop.failures), 1)
        self.assertIn("exit code 2", loop.failures[0])
        self.assertAlmostEqual(values["error_rate"], 1 / 3)
        line = run.result_line(loop, values, END_TO_END)
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (False, 3, 1))

    def test_child_address_space_is_limited(self):
        workload = make(TallCli)
        workload.reset_work_dir()
        result = workload.runner.run(["-c", "import numpy; numpy.ones(1 << 28)"])  # 2 GiB
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("MemoryError", result.stderr)

    def test_refuses_without_source_tree(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(
            HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__")
        )
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "random-lib", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
