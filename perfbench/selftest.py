"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload once at its smallest slice, untraced and traced, and
checks that every metric BENCHMARK.json names is emitted with its unit,
that the golden check catches a perturbed output, and that the untraced
path installs no wrapper.
"""

import copy
import json
import unittest

import run
import spans
import worker

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


class MetricsEmitted(unittest.TestCase):
    def check(self, trace, kind):
        for workload in worker.WORKLOADS:
            with self.subTest(workload=workload):
                result, report = run.benchmark(workload, 7, 1, trace, sliced=True)
                self.assertTrue(result["correct"], report["errors"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(emitted, declared(kind))
                self.assertEqual(report["error_rate"], 0.0)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")

    def test_run_gives_up_at_its_time_limit(self):
        limit = run.RUN_LIMIT_S
        run.RUN_LIMIT_S = 0
        try:
            with self.assertRaises(run.BenchError):
                run.benchmark("intersect-oracle", 7, 1, 0, sliced=True)
        finally:
            run.RUN_LIMIT_S = limit

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(
            [w["name"] for w in BENCHMARK["workloads"]], list(worker.WORKLOADS)
        )


class GoldenCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.hookw = worker.import_hookw()

    def run_slice(self, workload, golden):
        return worker.run_workload(self.hookw, workload, golden, "7/0", sliced=True)

    def test_seed_tallies_and_predictions(self):
        coinc = worker.load_golden("coincidence-sweep")["full"]
        self.assertEqual((coinc["passed"], coinc["skipped"], coinc["failed"]), (3663, 1137, 0))
        oracle = worker.load_golden("intersect-oracle")
        self.assertEqual(len(oracle["ops"]), 20)
        self.assertEqual(len(oracle["predictions"]), 54)
        self.assertEqual(
            worker.count_recovered(oracle, oracle["ops"], list(oracle["ops"])), 54
        )

    def test_unperturbed_slice_passes(self):
        for workload in worker.WORKLOADS:
            with self.subTest(workload=workload):
                out = self.run_slice(workload, worker.load_golden(workload))
                self.assertEqual(out["failed"], 0, out["errors"])

    def test_perturbed_sweep_output_fails_every_cell(self):
        for workload in worker.SWEEP_ARGV:
            with self.subTest(workload=workload):
                golden = copy.deepcopy(worker.load_golden(workload))
                golden["slice"]["stdout"] = golden["slice"]["stdout"].replace("true", "false", 1)
                out = self.run_slice(workload, golden)
                self.assertEqual(out["failed"], out["attempted"])
                self.assertGreater(out["failed"], 0)

    def test_perturbed_library_output_fails_that_operation(self):
        golden = copy.deepcopy(worker.load_golden("intersect-oracle"))
        key = worker.SLICE_KEYS["intersect-oracle"][0]
        golden["ops"][key]["residual_degree"] += 1
        out = self.run_slice("intersect-oracle", golden)
        self.assertEqual(out["failed"], 1)
        self.assertIn(key, " ".join(out["errors"]))


class Wrappers(unittest.TestCase):
    def test_untraced_path_installs_no_wrapper(self):
        hookw = worker.import_hookw()
        self.assertEqual(spans.count_wrapped(), 0)
        worker.run_workload(
            hookw, "intersect-oracle", worker.load_golden("intersect-oracle"), "7/0", True
        )
        self.assertEqual(spans.count_wrapped(), 0)

    def test_tracer_wraps_and_restores(self):
        hookw = worker.import_hookw()
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertGreater(spans.count_wrapped(), len(spans.TARGETS))
            self.assertIsNot(hookw.curves.rational_roots, hookw.exact.rational_roots)
        finally:
            tracer.uninstall()
        self.assertEqual(spans.count_wrapped(), 0)
        self.assertIs(hookw.curves.rational_roots, hookw.exact.rational_roots)


if __name__ == "__main__":
    unittest.main()
