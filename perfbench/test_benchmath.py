"""Tests of the benchmark's own arithmetic: python3 -m unittest discover perfbench

Self-time folding lives with the span capture in src/spans.rs and is
tested there (cargo test --manifest-path perfbench/Cargo.toml).
"""

import sys
import unittest

sys.dont_write_bytecode = True
import benchmath as bm  # noqa: E402


def one_each(xs):
    """One sample per input."""
    return list(enumerate(xs))


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_returns_an_observed_sample(self):
        xs = one_each([5.0, 1.0, 4.0, 2.0, 3.0])
        self.assertEqual(bm.percentile(xs, 50), 3.0)
        self.assertEqual(bm.percentile(xs, 95), 5.0)
        self.assertEqual(bm.percentile(xs, 100), 5.0)
        self.assertEqual(bm.percentile(xs, 1), 1.0)

    def test_rank_is_the_ceiling_of_q_times_n(self):
        xs = one_each(range(1, 101))  # 1..100
        self.assertEqual(bm.percentile(xs, 95), 95)
        self.assertEqual(bm.percentile(xs, 50), 50)
        # 20 samples: p95 is the 19th, not an interpolation of 19th and 20th.
        self.assertEqual(bm.percentile(one_each(range(1, 21)), 95), 19)

    def test_percentile_ignores_log_buckets(self):
        # A log2 histogram puts 33 and 60 in one bucket and reports the same
        # midpoint for p90 and p99; raw samples keep them apart.
        xs = one_each([1.0] * 90 + [33.0] * 9 + [60.0])
        self.assertEqual(bm.percentile(xs, 90), 1.0)
        self.assertEqual(bm.percentile(xs, 99), 33.0)
        self.assertEqual(bm.percentile(xs, 100), 60.0)

    def test_every_input_weighs_the_same(self):
        # Inputs 0, 1, 2 took 10, 20, 30 ms; a fast run repeated input 0
        # three more times. Pooled, input 0 would hold 4 of 6 samples and
        # the median would be 10; weighted, each input holds a third.
        xs = [(0, 10.0), (1, 20.0), (2, 30.0), (0, 11.0), (0, 9.0), (0, 10.5)]
        self.assertEqual(bm.percentile(xs, 50), 20.0)
        self.assertEqual(bm.percentile(xs, 34), 20.0)
        self.assertEqual(bm.percentile(xs, 33), 11.0)
        self.assertEqual(bm.percentile(xs, 100), 30.0)

    def test_samples_of_one_input_share_its_weight(self):
        # Input 0 has two decide samples, input 1 has four: every sample of
        # input 0 weighs 1/4 of the total, every sample of input 1 weighs 1/8.
        xs = [(0, 1.0), (0, 2.0), (1, 3.0), (1, 4.0), (1, 5.0), (1, 6.0)]
        self.assertEqual(bm.percentile(xs, 25), 1.0)
        self.assertEqual(bm.percentile(xs, 50), 2.0)
        self.assertEqual(bm.percentile(xs, 51), 3.0)
        self.assertEqual(bm.percentile(xs, 75), 4.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            bm.percentile([], 50)
        with self.assertRaises(ValueError):
            bm.percentile([(0, 1.0)], 0)


def pass_record(**kw):
    rec = dict(
        slots=10,
        total_loss=20.0,
        slo_failures=5,
        served=90,
        dropped=10,
        offered=100,
        wall_s=2.0,
        record_ms=0.0,
        utime_s=1.5,
        stime_s=0.5,
        nvcsw=30,
        nivcsw=10,
        decide_ms=[100.0] * 10,
        host_factor=1.0,
        host_kernel_ms=0.0,
    )
    rec.update(kw)
    return rec


class RatioBases(unittest.TestCase):
    def test_quality_pools_over_inputs(self):
        a = pass_record()
        b = pass_record(slots=30, total_loss=40.0, slo_failures=15, served=300, dropped=0, offered=300)
        q = bm.quality([a, b])
        self.assertAlmostEqual(q["loss_per_slot"], 60.0 / 40)  # base: slots
        # base: requests with an outcome (served + dropped); drops are failures
        self.assertAlmostEqual(q["slo_fail_pct"], 100.0 * 20 / 400)
        self.assertAlmostEqual(q["drop_pct"], 100.0 * 10 / 400)  # base: offered

    def test_throughput_and_cpu_are_per_slot(self):
        p = pass_record(record_ms=500.0)
        # base: run-loop wall time less the replay copying
        self.assertAlmostEqual(bm.slots_per_s(p), 10 / 1.5)
        self.assertAlmostEqual(bm.cpu_ms_per_slot(p), 200.0)  # base: slots
        self.assertAlmostEqual(bm.sys_cpu_pct(p), 25.0)  # base: user + sys CPU
        self.assertAlmostEqual(bm.ctx_switches_per_slot(p), 4.0)  # base: slots

    def test_times_are_at_nominal_host_speed(self):
        # The host ran twice as slow as nominal over this pass: every time
        # it measured counts half.
        p = pass_record(record_ms=500.0, host_factor=2.0)
        self.assertAlmostEqual(bm.slots_per_s(p), 10 / 0.75)
        self.assertAlmostEqual(bm.cpu_ms_per_slot(p), 100.0)
        self.assertAlmostEqual(bm.non_decide_ms_per_slot(p), (2000.0 - 500.0 - 1000.0) / 2 / 10)
        self.assertAlmostEqual(bm.at_nominal(p, 3.0), 1.5)
        # Shares and counts are not times.
        self.assertAlmostEqual(bm.sys_cpu_pct(p), 25.0)
        self.assertAlmostEqual(bm.ctx_switches_per_slot(p), 4.0)

    def test_cpu_leaves_out_the_host_kernel(self):
        # The kernel's own CPU time in the pass process is not the program's.
        p = pass_record(host_factor=2.0, host_kernel_ms=40.0)
        self.assertAlmostEqual(bm.cpu_ms_per_slot(p), (2000.0 - 40.0) / 2 / 10)

    def test_non_decide_time_excludes_decide_and_copying(self):
        p = pass_record(wall_s=2.0, record_ms=200.0, decide_ms=[100.0] * 10)
        self.assertAlmostEqual(bm.non_decide_ms_per_slot(p), (2000.0 - 200.0 - 1000.0) / 10)

    def test_steal_share_of_all_cpu_time(self):
        before = [100, 0, 50, 800, 0, 0, 0, 50, 0, 0]
        after = [200, 0, 100, 1500, 0, 0, 0, 150, 0, 0]
        # delta: user 100, sys 50, idle 700, steal 100 -> 100 / 950
        self.assertAlmostEqual(bm.steal_pct(before, after), 100.0 * 100 / 950)

    def test_counter_ratio_bases(self):
        c = {
            "solver.solves": 4,
            "solver.nodes": 40,
            "solver.warm_pivots": 30,
            "solver.cold_pivots": 10,
            "solver.refactorizations": 8,
            "solver.degraded": 1,
            "solver.lp_warm": 6,
            "solver.lp_cold": 2,
            "solver.dive_hits": 1,
            "solver.dive_attempts": 4,
            "scheduler.reuse_budget_skip": 3,
            "scheduler.reuse_warm_skip": 2,
            "scheduler.reuse_cache_hit": 1,
            "mab.pulls": 17,
        }
        r = bm.counter_ratios(c, slots=10)
        self.assertAlmostEqual(r["reuse.skip_share"], 0.6)  # base: slots
        self.assertEqual(r["reuse.full_solves"], 4.0)
        self.assertAlmostEqual(r["solver.nodes_per_solve"], 10.0)  # base: solves
        self.assertAlmostEqual(r["solver.pivots_per_solve"], 10.0)
        self.assertAlmostEqual(r["solver.refactorizations_per_solve"], 2.0)
        self.assertAlmostEqual(r["solver.degraded_share"], 0.25)
        self.assertAlmostEqual(r["solver.warm_lp_share"], 0.75)  # base: LP solves
        self.assertAlmostEqual(r["solver.dive_hit_rate"], 0.25)  # base: dive attempts
        self.assertEqual(r["mab.pulls"], 17.0)

    def test_empty_base_reads_zero(self):
        r = bm.counter_ratios({}, slots=10)
        self.assertEqual(r["solver.dive_hit_rate"], 0.0)
        self.assertEqual(r["solver.nodes_per_solve"], 0.0)

    def test_overhead_is_relative_to_the_untraced_pass(self):
        untraced = pass_record(wall_s=1.0)
        traced = pass_record(wall_s=1.05)
        self.assertAlmostEqual(bm.overhead_pct(untraced, traced), 5.0)


if __name__ == "__main__":
    unittest.main()
