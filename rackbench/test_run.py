#!/usr/bin/env python3
"""Self-tests for the benchmark driver's own logic.

    python3 rackbench/test_run.py
"""

import json
import re
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# Metric names as the benchmark contract allows them.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_name(name):
    return bool(NAME_RE.match(name))


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        for values in ([3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [5, 9, 1, 7, 3, 8, 2, 6, 4, 10]):
            q1, q2, q3 = statistics.quantiles(values, n=4)
            self.assertEqual(run.quartiles(values), (q1, q2, q3))
            self.assertEqual(run.quartiles(values)[1], statistics.median(values))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(run.quartiles([7.5]), (7.5, 7.5, 7.5))

    def test_no_values_is_an_error(self):
        with self.assertRaises(ValueError):
            run.quartiles([])


class StatParser(unittest.TestCase):
    STAT = ("cpu  582077 0 65031 1549863 301 0 4438 12212 0 0\n"
            "cpu0 291000 0 32000 774000 150 0 2200 6100 0 0\n")

    def test_reads_the_aggregate_steal_column(self):
        self.assertEqual(run.parse_steal_ticks(self.STAT), 12212)

    def test_old_kernels_without_steal_read_zero(self):
        self.assertEqual(run.parse_steal_ticks("cpu  1 2 3 4 5 6 7\n"), 0)

    def test_missing_aggregate_line_is_an_error(self):
        with self.assertRaises(ValueError):
            run.parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n")


class Identities(unittest.TestCase):
    GOOD = {"offered": 10, "placed": 7, "abandoned": 3, "completed": 4, "evicted": 1, "live_at_end": 2}

    def test_balanced_summary_passes(self):
        self.assertEqual(run.identity_errors(self.GOOD), [])

    def test_each_identity_is_checked(self):
        self.assertEqual(run.identity_errors({**self.GOOD, "abandoned": 2}),
                         ["offered != placed + abandoned"])
        self.assertEqual(run.identity_errors({**self.GOOD, "live_at_end": 3}),
                         ["placed != completed + evicted + live_at_end"])

    def test_registry_must_count_the_summary(self):
        registry = {"counters": {"arrivals": 10, "placed": 7}}
        self.assertEqual(run.registry_errors(registry, self.GOOD), [])
        registry["counters"]["placed"] = 6
        self.assertEqual(run.registry_errors(registry, self.GOOD), ["registry placed != summary placed"])


class Digests(unittest.TestCase):
    def test_identical_digests_have_no_mismatch(self):
        self.assertEqual(run.digest_mismatches(["a", "a", "a"]), [])

    def test_minority_digest_is_the_mismatch(self):
        self.assertEqual(run.digest_mismatches(["a", "b", "a", "a"]), [1])
        self.assertEqual(run.digest_mismatches(["b", "a", "a"]), [0])

    def test_a_tied_pair_fails_the_later_run(self):
        self.assertEqual(run.digest_mismatches(["a", "b"]), [1])

    def test_only_runs_of_the_same_seed_are_compared(self):
        runs = [{"seed": 1, "digest": "x", "errors": []},
                {"seed": 2, "digest": "y", "errors": []},
                {"seed": 1, "digest": "z", "errors": []},
                {"seed": 3, "errors": ["exit code 1"]}]
        run.mark_digest_failures(runs)
        self.assertEqual([len(r["errors"]) for r in runs], [0, 0, 1, 1])


class PanelValues(unittest.TestCase):
    @staticmethod
    def rep(serve_ms, wall_s):
        summary = {"nodes": 2, "ticks": 10, "energy_j": 5e6, "offered": 10, "placed": 8,
                   "abandoned": 2, "evicted": 1, "sla_violations": 2, "mean_availability": 0.99}
        return {"record": {"deploy_ms": 40.0, "serve_ms": serve_ms}, "summary": summary,
                "wall_s": wall_s, "cpu_s": wall_s, "peak_rss_mb": 100.0}

    def test_host_time_takes_each_members_fastest_repetition(self):
        values = run.panel_values([[self.rep(4.0, 3.0), self.rep(2.0, 5.0)],
                                   [self.rep(8.0, 7.0), self.rep(9.0, 6.0)]])
        self.assertEqual(values["serve_us_per_node_tick"], [100.0, 400.0])
        self.assertEqual(values["wall_s"], [3.0, 6.0])
        self.assertEqual(values["vm_served_frac"], [0.7, 0.7])
        self.assertEqual(values["sla_met_frac"], [0.75, 0.75])


class Inputs(unittest.TestCase):
    def test_member_seeds_are_distinct_across_members_and_workload_seeds(self):
        seeds = {run.sub_seed(w, k) for w in (2018, 2019, 7919) for k in range(64)}
        self.assertEqual(len(seeds), 3 * 64)

    def test_horizons_are_pure_and_within_the_jitter(self):
        spec = run.WORKLOADS["soak-extended"]
        draws = [run.member_secs(spec, 5, k) for k in range(32)]
        self.assertEqual(draws, [run.member_secs(spec, 5, k) for k in range(32)])
        self.assertNotEqual(draws, [run.member_secs(spec, 6, k) for k in range(32)])
        for secs in draws:
            self.assertTrue(spec["secs"] <= secs < spec["secs"] + run.TICK_S * run.JITTER_TICKS)
            self.assertEqual((secs - spec["secs"]) % run.TICK_S, 0)

    def test_panel_size_depends_only_on_its_arguments(self):
        spec = run.WORKLOADS["gray-consolidate"]
        self.assertEqual(run.panel_size(spec, 35, 1), int(35 // spec["process_s"]))
        self.assertEqual(run.panel_size(spec, 1, 2), run.MIN_PANEL)


class MetricNames(unittest.TestCase):
    def test_names_follow_the_contract(self):
        for name in [*run.END_TO_END, *run.PER_LAYER]:
            self.assertTrue(valid_name(name), name)
        for bad in ["", "_lead", "has space", "slash/ed", "x" * 65, "ünï"]:
            self.assertFalse(valid_name(bad), bad)

    def test_benchmark_json_lists_what_the_driver_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
