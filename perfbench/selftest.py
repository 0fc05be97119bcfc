"""Self-tests of the benchmark itself (not of invarcdf).

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes a few seconds.
"""

import itertools
import json
import sys
import unittest
from pathlib import Path

import catalog
import checks
import run
from tracer import Tracer


def _first_cycles(workload, seed, count=3):
    return list(itertools.islice(catalog.cycles(workload, seed), count))


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        tracer = Tracer(package=None)
        tracer.spans = [
            ["risk.mc_risk", 0.0, 10.0, None, 0],
            ["estimator.fit", 1.0, 4.0, 0, 0],
            ["model.Transform.eval", 2.0, 3.0, 1, 0],
            ["estimator.fit", 5.0, 7.0, 0, 0],
            ["special.quad_beta_weighted", 20.0, 21.5, None, 1],
        ]
        self.assertEqual(tracer.self_times(), [5.0, 2.0, 1.0, 2.0, 1.5])
        stats = tracer.summary()
        self.assertEqual(stats["estimator.fit.calls"], 2)
        self.assertEqual(stats["estimator.fit.self_s"], 4.0)
        self.assertEqual(stats["estimator.fit.inclusive_s"], 5.0)
        self.assertEqual(stats["risk.self_s"], 5.0)
        self.assertEqual(stats["special.calls"], 1)

    def test_overlapping_children_counted_once(self):
        tracer = Tracer(package=None)
        tracer.spans = [["a.f", 0.0, 10.0, None, 0], ["a.g", 1.0, 4.0, 0, 0], ["a.h", 3.0, 6.0, 0, 0]]
        self.assertEqual(tracer.self_times()[0], 5.0)


class CorrectnessGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ic = run._import_program()
        cls.bench = run.Bench(cls.ic, "tables")

    def test_levels_shifted_by_1e9_fail(self):
        ref = self.bench.refs[catalog.level_key("squared/H=pow:0.5", 5)]
        good, _ = checks.weights_json(json.dumps({"values": ref}), ref, catalog.TOL_LEVEL)
        self.assertLessEqual(good, 1)
        shifted = list(ref)
        shifted[2] += 1e-9
        bad, note = checks.weights_json(json.dumps({"values": shifted}), ref, catalog.TOL_LEVEL)
        self.assertGreater(bad, 1)
        self.assertIn("u[2]", note)

    def test_real_output_passes_and_perturbed_output_fails(self):
        task = catalog._weights_task(["--n", "5", "--rho", "squared", "--H", "pow:0.5"], "squared/H=pow:0.5", 5, catalog.TOL_LEVEL)
        self.assertIsNone(self.bench.run_task(task)["error"])
        rc, stdout, stderr = self.bench.execute(task)
        values = json.loads(stdout)["values"]
        values[-1] -= 1e-9
        ratio, _ = self.bench.judge(task, (rc, json.dumps({"values": values}), stderr))
        self.assertGreater(ratio, 1)

    def test_quadrature_risk_and_monte_carlo_gates(self):
        exact = self.bench.refs[catalog.risk_key("best", "squared", "identity", 10)]
        self.assertLessEqual(checks.risk_quad(json.dumps({"value": exact, "divergent": False}), exact)[0], 1)
        self.assertGreater(checks.risk_quad(json.dumps({"value": exact + 1e-9, "divergent": False}), exact)[0], 1)
        se = 1e-4
        self.assertLessEqual(checks.mc_value(exact + 4.9 * se, se, exact)[0], 1)
        self.assertGreater(checks.mc_value(exact + 5.1 * se, se, exact)[0], 1)

    def test_inconsistent_constancy_verdict_fails(self):
        with self.assertRaises(checks.CheckError):
            checks.constancy([0.1, 0.1], [1e-3, 1e-3], False, None, 0.1)
        self.assertLessEqual(checks.constancy([0.1, 0.1], [1e-3, 1e-3], True, None, 0.1)[0], 1)

    def test_tracer_restores_the_program(self):
        original = self.ic.risk.invariant_risk
        tracer = Tracer(self.ic)
        with tracer:
            self.assertIsNot(self.ic.cli.invariant_risk, original)
            rc, _, _ = self.bench._cli(["risk", "--n", "3"])
        self.assertEqual(rc, 0)
        self.assertIs(self.ic.cli.invariant_risk, original)
        self.assertIs(self.ic.invariant_risk, original)
        names = {span[0] for span in tracer.spans}
        self.assertTrue({"cli.main", "risk.invariant_risk", "special.quad_beta_weighted"} <= names)


class TaskLists(unittest.TestCase):
    def test_same_seed_same_tasks_other_seed_other_tasks(self):
        for workload in catalog.WORKLOADS:
            self.assertEqual(_first_cycles(workload, 7), _first_cycles(workload, 7))
            self.assertNotEqual(_first_cycles(workload, 7), _first_cycles(workload, 8))

    def test_cycle_composition_does_not_depend_on_seed(self):
        def shape(cycle):
            return sorted((t["kind"], t.get("argv", [""])[0], t.get("n")) for t in cycle if t["kind"] != "weights")

        for workload in catalog.WORKLOADS:
            a, b = _first_cycles(workload, 1, 1)[0], _first_cycles(workload, 2, 1)[0]
            self.assertEqual(len(a), len(b))
            self.assertEqual(shape(a), shape(b))

    def test_every_reference_exists(self):
        refs = json.loads((run.HERE / "references.json").read_text())["references"]
        for workload in catalog.WORKLOADS:
            for task in itertools.chain(*_first_cycles(workload, 3, 7), catalog.known_defect_tasks()):
                keys = [task["ref"]] if "ref" in task else list(task["columns"].values())
                for key in keys:
                    self.assertIn(key, refs)


class Contract(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(45), 75.0)
        self.assertEqual(run.tail_percentile(150), 90.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(12), 50.0)
        # fixed per workload from its minimum task count, whatever N a run reaches
        self.assertEqual(run.TAIL_PERCENTILE, {"mc-invariant": 90.0, "mc-data": 95.0, "tables": 95.0})

    def test_task_times_scaled_by_the_probe_before_them(self):
        ref = run.REFERENCE_S
        results = [{"seconds": s, "probe_s": p, "error": None, "reps": 0} for s, p in ((1.0, ref), (1.0, 2 * ref), (3.0, ref))]
        metrics, extra = run.end_to_end(results, 0.5, 50.0)  # scaled times 1.0, 0.5, 3.0
        self.assertAlmostEqual(metrics["task_p50_s"], 1.0)
        self.assertAlmostEqual(metrics["tasks_per_s"], 3 / 4.5)
        self.assertAlmostEqual(extra["wall_task_p50_s"], 1.0)
        self.assertAlmostEqual(extra["wall_tasks_per_s"], 3 / 5.0)
        self.assertEqual(metrics["setup_s"], 0.5)

    def test_benchmark_json_matches_the_metrics_printed(self):
        spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(catalog.WORKLOADS))


if __name__ == "__main__":
    sys.exit(unittest.main())
