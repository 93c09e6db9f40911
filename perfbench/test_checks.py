#!/usr/bin/env python3
"""Shows that every correctness check can fail.

    python3 perfbench/test_checks.py      (from the checkout root)

Runs each workload once in --short mode, expects all checks to pass on the
real result, then alters that result by hand (a dropped flit, a removed
hop, thread outputs that differ, ...) and expects the matching check to
report a failure.
"""

import copy
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

SEED = 3


class Distances(unittest.TestCase):
    def test_clos_uniform_mean(self):
        clos = {"topology": "folded_clos", "half_radix": 4, "levels": 3}
        self.assertEqual(checks.router_distance(clos, 0, 1), 1)
        self.assertEqual(checks.router_distance(clos, 0, 4), 3)
        self.assertEqual(checks.router_distance(clos, 0, 16), 5)
        mean, _ = checks.uniform_hops(clos)
        self.assertAlmostEqual(mean, (3 * 1 + 12 * 3 + 48 * 5) / 63)

    def test_torus_wraps(self):
        torus = {"topology": "torus", "widths": [4, 4]}
        self.assertEqual(checks.router_distance(torus, 0, 3), 2)
        self.assertEqual(checks.router_distance(torus, 0, 15), 3)
        self.assertEqual(checks.router_distance(torus, 5, 10), 3)


class AlteredResults(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        binary = run.build()
        cls.runs = {}
        for name in run.WORKLOADS:
            cls.runs[name] = run.run_perfbench(binary, name, SEED, 0, 0,
                                               short=True)
        cls.traced = run.run_perfbench(binary, "torus_faults_collective",
                                       SEED, 0, 1, short=True)

    def fails(self, name, alter, check=None):
        config, report = self.runs[name]
        report = copy.deepcopy(report)
        alter(report)
        spec = run.WORKLOADS[name]
        if check is None:
            return checks.run_checks(spec, config, report)
        return check(config, report)

    def test_unaltered_runs_pass(self):
        for name, (config, report) in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(
                    checks.run_checks(run.WORKLOADS[name], config, report),
                    [])
        config, report = self.traced
        self.assertEqual(checks.run_checks(
            run.WORKLOADS["torus_faults_collective"], config, report), [])

    def test_traced_run_reports_every_layer(self):
        metrics = run.per_layer_metrics(self.traced[1])
        self.assertEqual(set(metrics), set(run.metric_units(trace=1)))
        self.assertGreater(metrics["fault.flips"], 0)
        self.assertGreater(metrics["collective.completions"], 0)

    def test_dropped_flit(self):
        def drop(report):
            report["checks"]["flits_ejected"][0] -= 1
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                self.assertTrue(self.fails(name, drop,
                                           checks.check_conservation))

    def test_message_left_in_flight(self):
        def strand(report):
            report["checks"]["messages_in_flight"] = 1
            report["checks"]["apps"][0]["received"] -= 1
        self.assertTrue(self.fails("clos_oq_1flit", strand,
                                   checks.check_conservation))

    def test_removed_hop(self):
        def remove(report):
            report["checks"]["sample_pairs"][0][4] -= 1  # min hops
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                self.assertTrue(self.fails(
                    name, remove,
                    lambda c, r: checks.check_samples(c, r, False)))

    def test_extra_hop_under_minimal_routing(self):
        def extra(report):
            report["checks"]["sample_pairs"][0][5] += 1  # max hops
        self.assertTrue(self.fails(
            "torus16_iq_8flit_t4", extra,
            lambda c, r: checks.check_samples(c, r, True)))

    def test_latency_below_zero_load(self):
        def faster(report):
            row = report["checks"]["sample_pairs"][0]
            row[7] = 1  # min latency
        self.assertTrue(self.fails("clos_oq_1flit", faster,
                                   lambda c, r: checks.check_samples(
                                       c, r, True)))

    def test_throughput_off_offered_rate(self):
        def slow(report):
            report["checks"]["throughput"] *= 0.9
        self.assertTrue(self.fails("clos_oq_1flit", slow,
                                   checks.check_open_loop))

    def test_mean_hops_off_uniform(self):
        def longer(report):
            for row in report["checks"]["sample_pairs"]:
                row[6] += row[3]  # one more hop per sample
        self.assertTrue(self.fails("torus16_iq_8flit_t4", longer,
                                   checks.check_open_loop))

    def test_thread_outputs_differ(self):
        def differ(report):
            report["identity_result"] = re.sub(
                r'"events_executed":\s*(\d+)',
                lambda m: m.group(0)[:-len(m.group(1))] +
                str(int(m.group(1)) + 1),
                report["identity_result"], count=1)
            self.assertNotEqual(report["identity_result"],
                                report["results"][0])
        self.assertTrue(self.fails("torus16_iq_8flit_t4", differ,
                                   checks.check_determinism))

    def test_repeated_runs_differ(self):
        def differ(report):
            report["results"].append(report["results"][0] + " ")
        self.assertTrue(self.fails("clos_oq_1flit", differ,
                                   checks.check_determinism))

    def test_collective_chunk_missing(self):
        def lose(report):
            report["checks"]["flits_ejected"][3] -= 64
        self.assertTrue(self.fails("torus_faults_collective", lose,
                                   checks.check_collective))

    def test_collective_beats_alpha_beta(self):
        def faster(report):
            record = report["checks"]["collective_records"][0]
            record["end"] = record["start"] + 100
        self.assertTrue(self.fails("torus_faults_collective", faster,
                                   checks.check_collective))

    def test_resilience_ledger_unbalanced(self):
        def unbalance(report):
            report["checks"]["resilience"]["flits_ejected"] -= 1
        self.assertTrue(self.fails("torus_faults_collective", unbalance,
                                   checks.check_collective))

    def test_misrouted_walk(self):
        config, report = self.traced
        report = copy.deepcopy(report)
        report["layers"]["routing.misdelivered"] = 1
        self.assertTrue(checks.check_routing_walks(config, report))


if __name__ == "__main__":
    unittest.main()
