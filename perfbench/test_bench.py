"""Self-tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import random
import statistics
import unittest

import bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(id, start, end, parent=0, name="s", lane=0):
    return {"id": id, "parent": parent, "name": name, "start_ns": start, "end_ns": end, "lane": lane}


class Statistics(unittest.TestCase):
    def test_median_odd_even_empty(self):
        self.assertEqual(bench.median([3, 1, 2]), 2)
        self.assertEqual(bench.median([4, 1, 3, 2]), 2.5)
        self.assertNotEqual(bench.median([]), bench.median([]))  # NaN

    def test_median_matches_statistics(self):
        rng = random.Random(7)
        for n in range(1, 30):
            values = [rng.uniform(0, 10) for _ in range(n)]
            self.assertAlmostEqual(bench.median(values), statistics.median(values))

    def test_quartile_spread_matches_statistics_quantiles(self):
        rng = random.Random(11)
        for n in range(2, 25):
            values = [rng.uniform(1, 5) for _ in range(n)]
            q1, _, q3 = statistics.quantiles(values, n=4)
            expected = (q3 - q1) / statistics.median(values)
            self.assertAlmostEqual(bench.quartile_spread(values), expected)

    def test_spreads_of_result_lines(self):
        lines = [bench.result_line({"job_ref.p50": (v, "ref")}, 1, 0, []) for v in (1, 2, 3, 4, 5)]
        med, spread, bound = bench.spreads(lines)["job_ref.p50"]
        self.assertEqual(med, 3)
        self.assertAlmostEqual(spread, (4.5 - 1.5) / 3)
        self.assertEqual(bound, dict((n, b) for n, _, _, b in bench.END_TO_END)["job_ref.p50"])

    def test_quantile_interpolates(self):
        self.assertEqual(bench.quantile([1, 2, 3, 4, 5], 0.5), 3)
        self.assertAlmostEqual(bench.quantile([0, 10], 0.9), 9.0)
        self.assertEqual(bench.quantile([5], 0.9), 5)


class SelfTime(unittest.TestCase):
    def test_union_of_intervals(self):
        self.assertEqual(bench.union_length([]), 0)
        self.assertEqual(bench.union_length([(0, 10), (5, 15)]), 15)
        self.assertEqual(bench.union_length([(0, 10), (20, 25)]), 15)
        self.assertEqual(bench.union_length([(0, 10), (2, 3), (9, 12)]), 12)

    def test_sequential_children(self):
        spans = [span(1, 0, 100), span(2, 10, 30, 1), span(3, 40, 70, 1)]
        self.assertEqual(bench.self_times(spans)[1], 50)

    def test_children_overlapping_on_two_lanes_count_once(self):
        spans = [
            span(1, 0, 100),
            span(2, 10, 60, 1, lane=0),
            span(3, 30, 80, 1, lane=1),
        ]
        # Covered: 10..80 = 70, not 50 + 50 = 100.
        self.assertEqual(bench.self_times(spans)[1], 30)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 100), span(2, 90, 150, 1)]
        self.assertEqual(bench.self_times(spans)[1], 90)

    def test_grandchildren_do_not_reduce_grandparent(self):
        spans = [span(1, 0, 100), span(2, 0, 50, 1), span(3, 0, 50, 2)]
        selfs = bench.self_times(spans)
        self.assertEqual(selfs[1], 50)
        self.assertEqual(selfs[2], 0)


class Spec(unittest.TestCase):
    def test_spec_is_valid(self):
        self.assertEqual(bench.validate_spec(bench.spec()), [])

    def test_metric_names(self):
        for good in ["job_s.p50", "a", "9x", "cache.plan.hit_ratio", "x-y_z"]:
            self.assertTrue(bench.NAME_RE.fullmatch(good), good)
        for bad in ["", ".a", "_a", "a b", "a/b", "é", "a" * 65]:
            self.assertFalse(bench.NAME_RE.fullmatch(bad), bad)

    def test_limits_are_enforced(self):
        doc = bench.spec()
        doc["end_to_end"] = doc["end_to_end"] + [
            {"name": f"extra{i}", "unit": "s", "better": "lower", "bound": 0.1} for i in range(16)
        ]
        self.assertTrue(any("end_to_end" in e for e in bench.validate_spec(doc)))
        doc = bench.spec()
        doc["per_layer"] = [{"name": f"m{i}", "unit": "ms", "better": "lower"} for i in range(129)]
        self.assertTrue(any("per_layer" in e for e in bench.validate_spec(doc)))
        doc = bench.spec()
        doc["end_to_end"][0]["bound"] = 0.3
        self.assertTrue(bench.validate_spec(doc))
        doc = bench.spec()
        doc["per_layer"].append(dict(doc["per_layer"][0]))
        self.assertIn("names are not unique", bench.validate_spec(doc))

    def test_within_limits(self):
        doc = bench.spec()
        self.assertLessEqual(len(doc["end_to_end"]), bench.MAX_END_TO_END)
        self.assertLessEqual(len(doc["per_layer"]), bench.MAX_PER_LAYER)

    def test_committed_benchmark_json_round_trips(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            text = f.read()
        doc = json.loads(text)
        self.assertEqual(doc, bench.spec())
        self.assertEqual(bench.render_spec(doc), text)


class Reductions(unittest.TestCase):
    def measured_raw(self, speed=1.0):
        """A run whose host runs `speed` times slower than a quiet one:
        jobs and reference passes stretch alike."""
        return {
            "job_s": [2.0 * speed, 3.0 * speed, 1.0 * speed],
            "job_cpu_s": [3.0 * speed, 4.5 * speed, 1.5 * speed],
            # One reference time caught in a burst of load (0.9 s).
            "ref_s": [0.1 * speed, 0.1 * speed, 0.9 * speed, 0.1 * speed],
            "setup_s": [0.5, 0.7, 0.6],
            "peak_rss_mib": 100.0, "pvb_nm2": 5.0, "final_cost_ratio": 0.5, "failures": [],
        }

    def test_measure_reduction(self):
        metrics, problems = bench.reduce_measure(self.measured_raw())
        self.assertEqual(problems, [])
        # Over the median reference time, 0.1 s: the burst is ignored.
        self.assertAlmostEqual(metrics["job_ref.p50"][0], 20.0)
        self.assertAlmostEqual(metrics["jobs_per_kref"][0], 1000.0 * 3 / 60)
        self.assertAlmostEqual(metrics["cpu_ref_per_job"][0], 30.0)
        self.assertEqual(metrics["job_ref.p50"][1], "ref")
        self.assertEqual(metrics["setup_s"][0], 0.6)
        self.assertEqual({n for n, *_ in bench.END_TO_END}, set(metrics))

    def test_host_speed_cancels_out(self):
        quiet, _ = bench.reduce_measure(self.measured_raw())
        busy, _ = bench.reduce_measure(self.measured_raw(speed=1.7))
        for name in ("jobs_per_kref", "job_ref.p50", "cpu_ref_per_job"):
            self.assertAlmostEqual(busy[name][0], quiet[name][0], msg=name)
        self.assertAlmostEqual(bench.wall_clock(self.measured_raw(speed=1.7))["job_s.p50"], 3.4)

    def traced_raw(self, replay_end_s=2.9):
        ms = 1_000_000
        spans = [
            span(1, 0, 1000 * ms, name="job"),
            span(2, 0, 900 * ms, 1, name="engine.submit"),
            span(3, 900 * ms, 1000 * ms, 1, name="metrics.evaluate"),
            span(4, 2000 * ms, int(replay_end_s * 1000) * ms, name="replay"),
            span(5, 2000 * ms, 2300 * ms, 4, name="litho.aerial"),
            # Two gradient calls overlapping on two lanes: 2300..2700.
            span(6, 2300 * ms, 2600 * ms, 4, name="litho.gradient", lane=0),
            span(7, 2400 * ms, 2700 * ms, 4, name="litho.gradient", lane=1),
        ]
        job = {
            "job_s": 1.0, "submit_s": 0.9, "evaluate_s": 0.1, "iterations": 2,
            "coarse_iterations": 0, "iter_s": [0.4, 0.5], "levelset_s": 0.05,
            "epe_violations": 1, "shape_violations": 0, "checkpoint_bytes": 10,
            "spans": {"checkpoint.write": [1, 0.01, 0.01]}, "caches": {"plan": [3, 1]},
            "replay": {
                "span": 4, "wall_s": replay_end_s - 2.0, "iterations": 2, "coarse_iterations": 0,
                "levelset_s": 0.05, "checkpoint_s": 0.01, "coarse_backend_s": 0.0,
                "line_search_calls": 0,
            },
        }
        iso = {k: 0.001 for k in (
            "fft.forward", "fft.inverse_band_batch", "fft.rfft_forward", "levelset.sdf",
            "levelset.evolve", "levelset.cfl", "levelset.upsample", "optics.kernel_gen")}
        return {
            "lanes": 2, "solve_px": 64, "kernels": 4, "complex_bytes": 16,
            "cold_probe_s": 0.5, "warm_probe_s": 0.3, "untraced_s": 0.8, "untraced_jobs": 1,
            "reference_s": 0.05, "jobs": [job],
            "occupancy": 0.9, "imbalance": 1.1, "isolated": iso, "spans": spans,
            "attempted": 2, "failures": [],
        }

    def test_trace_ledger_adds_up(self):
        metrics, problems = bench.reduce_trace(self.traced_raw(), 1.8)
        self.assertEqual(problems, [])
        self.assertEqual({n for n, *_ in bench.PER_LAYER}, set(metrics))
        value = {k: v for k, (v, _) in metrics.items()}
        self.assertAlmostEqual(value["litho.share"], 0.7)
        self.assertAlmostEqual(value["core.unattributed_share"], 0.14)
        shares = sum(value[k] for k in (
            "litho.share", "levelset.share", "resume.share", "metrics.share", "core.unattributed_share"))
        self.assertAlmostEqual(shares, 1.0)
        self.assertAlmostEqual(value["ledger.gap_share"], 0.0)
        self.assertEqual(value["litho.aerial_calls_per_iter"], 0.5)
        self.assertEqual(value["litho.gradient_calls_per_iter"], 1.0)
        self.assertAlmostEqual(value["parallel.speedup_vs_1lane"], 2.0)
        self.assertAlmostEqual(value["trace.overhead_pct"], 25.0)
        self.assertAlmostEqual(value["engine.first_job_extra_s"], 0.2)
        self.assertEqual(value["cache.plan.hit_ratio"], 0.75)
        self.assertAlmostEqual(value["host.ref_ms"], 50.0)
        self.assertAlmostEqual(value["host.jobs_per_min"], 75.0)

    def test_trace_ledger_gap_is_a_problem(self):
        _, problems = bench.reduce_trace(self.traced_raw(replay_end_s=3.5), 1.8)
        self.assertTrue(any("miss the traced job wall time" in p for p in problems), problems)

    def test_result_line(self):
        line = json.loads(bench.result_line({"x": (1.5, "s")}, 3, 0, []))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(line["metrics"], {"x": {"value": 1.5, "unit": "s"}})
        line = json.loads(bench.result_line({"x": (float("nan"), "s")}, 3, 0, []))
        self.assertFalse(line["correct"])
        line = json.loads(bench.result_line({"x": (1.0, "s")}, 3, 1, ["job failed"]))
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)


if __name__ == "__main__":
    unittest.main()
