"""Unit tests of the benchmark's own helpers.

    python3 perfbench/test_metrics.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TailPercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        pct, value, n = metrics.tail_percentile(range(1000))
        self.assertEqual((pct, value, n), (99.0, 989, 1000))
        self.assertEqual(1000 - (value + 1), 10)

    def test_falls_back_to_highest_supported_percentile(self):
        pct, value, n = metrics.tail_percentile(range(100))
        self.assertEqual(n, 100)
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 89)
        beyond = sum(1 for x in range(100) if x > value)
        self.assertGreaterEqual(beyond, metrics.TAIL_MIN_BEYOND)

    def test_never_exceeds_the_cap(self):
        pct, _, _ = metrics.tail_percentile(range(5000))
        self.assertEqual(pct, 99.0)

    def test_too_few_samples_has_no_tail(self):
        self.assertEqual(metrics.tail_percentile(range(10)),
                         (None, None, 10))
        pct, value, _ = metrics.tail_percentile(range(11))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_nearest_rank_percentile(self):
        self.assertEqual(metrics.percentile(range(1, 11), 90.0), 9)
        self.assertEqual(metrics.percentile([3.0], 90.0), 3.0)

    def test_order_of_samples_does_not_matter(self):
        xs = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(metrics.tail_percentile(xs),
                         metrics.tail_percentile(sorted(xs)))


class OpenLoopLatencyTest(unittest.TestCase):
    def test_counts_from_scheduled_time_not_send_time(self):
        # The generator sent the second request 0.3 s late; its latency
        # must include that delay.
        requests = {"due": [0.0, 0.1], "sent": [0.0, 0.4],
                    "done": [0.05, 0.45]}
        lat = metrics.open_loop_latencies(requests)
        self.assertAlmostEqual(lat[0], 0.05)
        self.assertAlmostEqual(lat[1], 0.35)

    def test_failed_requests_have_no_latency(self):
        requests = {"due": [0.0, 0.1], "sent": [0.0, 0.1],
                    "done": [0.2, -1.0]}
        self.assertEqual(metrics.open_loop_latencies(requests), [0.2])

    def test_serving_figures_pool_the_measured_window(self):
        # 100 requests due after the 1-s warm-up, latencies 1..100 ms,
        # and one warm-up request that must not count.
        due = [0.5] + [1.0 + 0.01 * i for i in range(100)]
        done = [10.0] + [d + 0.001 * (i + 1)
                         for i, d in enumerate(due[1:])]
        n = len(due)
        res = {"warmup_s": 1.0, "due": due, "sent": due, "done": done,
               "queue": [0.0] * n, "service": [0.0] * n, "early": [0] * n,
               "deadline_missed": [0] * n, "sim_cycles_per_img": 512,
               "setup": {"setup_s": [0.1],
                         "probe_s": [metrics.PROBE_REF_S]}}
        raw = {"probe_seconds": [metrics.PROBE_REF_S] * 3,
               "peak_rss_kib": 1024, "result": res}
        m, _ = metrics.end_to_end(raw)
        self.assertAlmostEqual(m["latency_p50_ms"], 50.5)
        self.assertAlmostEqual(m["latency_tail_ms"],
                               metrics.SERVING_TAIL_PCT)

        # The workers' CPUs ran twice as slow in the second window: every
        # request due in it is scaled to half its latency.
        w = metrics.SERVING_SCALE_WINDOW_S
        res["idle_probe"] = {"at": [0.5 * w, 1.0 * w, 1.5 * w],
                             "seconds": [metrics.PROBE_REF_S,
                                         2 * metrics.PROBE_REF_S,
                                         2 * metrics.PROBE_REF_S]}
        m, _ = metrics.end_to_end(raw)
        scaled = sorted(1e3 * (d - u) / (2 if u >= w else 1)
                        for u, d in zip(due[1:], done[1:]))
        self.assertAlmostEqual(m["latency_p50_ms"],
                               (scaled[49] + scaled[50]) / 2)
        self.assertAlmostEqual(m["latency_tail_ms"],
                               metrics.percentile(
                                   scaled, metrics.SERVING_TAIL_PCT))


class HostScalingTest(unittest.TestCase):
    def raw(self, call_probes, setup_probes):
        return {
            "probe_seconds": setup_probes + call_probes,
            "peak_rss_kib": 2048,
            "result": {"call_seconds": [0.1] * 4, "call_images": [4] * 4,
                       "call_probe_seconds": call_probes,
                       "sim_cycles_per_img": 1024,
                       "setup": {"setup_s": [0.5, 0.6, 0.7],
                                 "probe_s": setup_probes}},
        }

    def test_reference_host_reports_raw_figures(self):
        ref = metrics.PROBE_REF_S
        m, _ = metrics.end_to_end(self.raw([ref] * 4, [ref] * 3))
        self.assertAlmostEqual(m["img_per_s"], 40.0)
        self.assertAlmostEqual(m["latency_p50_ms"], 100.0)
        self.assertAlmostEqual(m["setup_s"], 0.6)
        self.assertEqual(m["sim_cycles_per_img"], 1024)
        self.assertEqual(m["peak_rss_mib"], 2.0)

    def test_each_timing_is_scaled_by_its_own_probe(self):
        # The host ran twice as slow for the second and fourth calls and
        # for the second set-up: those read half as long.
        ref = metrics.PROBE_REF_S
        m, _ = metrics.end_to_end(self.raw([ref, 2 * ref] * 2,
                                           [ref, 2 * ref, ref]))
        self.assertAlmostEqual(m["img_per_s"], 16 / 0.3)
        self.assertAlmostEqual(m["latency_p50_ms"], 75.0)
        self.assertAlmostEqual(m["latency_tail_ms"], 100.0)
        self.assertAlmostEqual(m["setup_s"], 0.5)


class MetricNameTest(unittest.TestCase):
    def test_accepts_the_allowed_alphabet(self):
        for name in ("img_per_s", "stages.s2_conv.time_ratio_vs_2n",
                     "core.plan.cold_compile_s", "a-b.c_d", "9lives"):
            self.assertTrue(metrics.valid_metric_name(name), name)

    def test_rejects_everything_else(self):
        for name in ("", "_lead", ".lead", "has space", "slash/unit",
                     "colon:x", "x" * 65, "p99%"):
            self.assertFalse(metrics.valid_metric_name(name), name)

    def test_every_reported_name_is_valid_and_unique(self):
        names = [n for n, _ in metrics.END_TO_END + metrics.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_metric_name(name), name)

    def test_benchmark_json_matches_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(metrics.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
