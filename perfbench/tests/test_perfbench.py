"""Tests of the repository benchmark at smoke size.

    python3 -m unittest discover -s perfbench/tests -v

Each test drives perfbench/run.py as the benchmark command is driven
(from the checkout root) at --size smoke, which builds the benchmark
on first use.
"""

import importlib.util
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent

spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

with open(ROOT / "BENCHMARK.json") as f:
    BENCHMARK = json.load(f)


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1]) if lines else None


class MetricsTest(unittest.TestCase):
    def check_metrics(self, trace, section):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                proc, lines, result = bench(w["name"], trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, unit in expected.items():
                    self.assertTrue(any(l.strip().startswith(f"{name} = ") and l.endswith(unit)
                                        for l in lines), f"{name} not printed with its unit")
                if section == "end_to_end":
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0.0, name)

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics_printed_with_units(self):
        self.check_metrics(1, "per_layer")


class TraceTest(unittest.TestCase):
    def test_spans_have_valid_parents_and_self_times(self):
        proc, lines, result = bench("fabric", 1)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        path = Path(proc.stderr.split("trace written to ")[1].split()[0])
        trace = json.loads(path.read_text())
        spans = trace["spans"]
        self.assertGreater(len(spans), 5)
        ids = {s["id"] for s in spans}
        self.assertEqual({s["run_id"] for s in spans}, {trace["run_id"]})
        for s in spans:
            self.assertTrue(s["parent"] == -1 or s["parent"] in ids, s)
            self.assertGreaterEqual(s["self_s"], 0.0, s)
        names = {s["name"] for s in spans}
        self.assertTrue({"fabric", "analysis.bootstrap", "sim.op", "sim.tran"} <= names)
        # The phases plus other_s make up the transient span exactly.
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(m[f"sim.tran.{p}"] for p in
                    ("assembly_s", "model_eval_s", "factor_s", "solve_s", "other_s"))
        self.assertAlmostEqual(parts, m["sim.tran_s"], places=9)

    def test_malformed_spans_are_rejected(self):
        good = [{"name": "a", "id": 0, "parent": -1, "start_s": 0.0, "end_s": 2.0, "run_id": "r"},
                {"name": "b", "id": 1, "parent": 0, "start_s": 0.5, "end_s": 1.0, "run_id": "r"}]
        self.assertEqual(run.self_times(good), {0: 1.5, 1: 0.5})
        orphan = [dict(good[0]), dict(good[1], parent=7)]
        with self.assertRaises(ValueError):
            run.self_times(orphan)
        outside = [dict(good[0]), dict(good[1], end_s=3.0)]
        with self.assertRaises(ValueError):
            run.self_times(outside)


class ReferenceTest(unittest.TestCase):
    def test_farm_entries_are_held_to_lane_rel_tol(self):
        # Each sampled NLDM entry is held to lane_rel_tol (1e-3) times the
        # largest sampled entry of its table; an entry may deviate from
        # that only as a marked known defect, with the contract beside it.
        with open(BENCH_DIR / "reference.json") as f:
            farm = json.load(f)["farm"]
        for size, entries in farm.items():
            peak = {}
            for name, ref in entries.items():
                if name.startswith("nldm."):
                    table = tuple(name.split(".")[i] for i in (1, 2, 4))
                    peak[table] = max(peak.get(table, 0.0), ref["ref"])
            for name, ref in entries.items():
                if not name.startswith("nldm."):
                    continue
                with self.subTest(size=size, entry=name):
                    contract = 1e-3 * peak[tuple(name.split(".")[i] for i in (1, 2, 4))]
                    if "known_defect" in ref:
                        self.assertAlmostEqual(ref["contract_tol"], contract, places=6)
                    else:
                        self.assertAlmostEqual(ref["tol"], contract, places=6)

    def test_known_defect_is_reported_against_its_contract(self):
        reference = {"a": {"ref": 10.0, "tol": 1.0},
                     "b": {"ref": 5.0, "tol": 2.0, "contract_tol": 1.0, "known_defect": "x"}}
        records = [{"checks": {"a": 10.5, "b": 6.5}}]
        dev, worst, defects = run.check_outputs(records, reference, {})
        self.assertAlmostEqual(dev, 0.75)
        self.assertEqual(worst, "b")
        self.assertEqual(defects, {"b": 1.5})
        missing = [{"checks": {"a": 10.0}}]
        self.assertEqual(run.check_outputs(missing, reference, {})[0], 1e9)


class FailureCountTest(unittest.TestCase):
    def test_injected_monte_carlo_fault_counts_as_failed(self):
        proc, lines, result = bench("paper", 0, "--fault-sample", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        # One faulted sample in each of the four Monte-Carlo tables of
        # every iteration.
        iterations = int(lines[0].split("iterations")[1].split()[0])
        self.assertEqual(result["failed"], 4 * iterations)
        fail_frac = [l for l in lines if l.strip().startswith("fail_frac = ")]
        self.assertEqual(len(fail_frac), 1)
        self.assertAlmostEqual(float(fail_frac[0].split("=")[1].split()[0]),
                               4 * iterations / result["attempted"], places=5)


if __name__ == "__main__":
    unittest.main()
