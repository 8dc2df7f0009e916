"""The /metrics parser on a captured exposition sample, the histogram delta
quantile, and the spread statistic."""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import metrics as met  # noqa: E402


def sample():
    # Captured from a dlnoded replica (--admin-port) serving lan_durable.
    with open(os.path.join(HERE, "data", "metrics_sample.prom")) as f:
        return f.read()


class PrometheusParser(unittest.TestCase):
    def setUp(self):
        self.text = sample()
        self.s = met.parse_prometheus(self.text)

    def test_every_sample_line_parsed(self):
        lines = [l for l in self.text.splitlines() if l.strip() and not l.startswith("#")]
        self.assertEqual(len(self.s), len(lines))

    def test_labelled_series_are_summed(self):
        peers = {l: v for (n, l), v in self.s.items() if n == "dl_peer_sent_bytes_total"}
        self.assertEqual(len(peers), 3)
        self.assertEqual(met.series_sum(self.s, "dl_peer_sent_bytes_total"), sum(peers.values()))
        self.assertEqual(met.series_sum(self.s, "dl_peer_sent_bytes_total", 'peer="1"'),
                         peers['peer="1"'])

    def test_every_series_run_py_reads_is_present(self):
        for name in ["dl_node_epoch_frontier", "dl_node_delivered_blocks_total",
                     "dl_node_delivered_tx_total", "dl_node_delivered_bytes_total",
                     "dl_node_proposed_blocks_total", "dl_node_proposed_empty_total",
                     "dl_node_own_blocks_dropped_total", "dl_node_vid_chunks_sent_total",
                     "dl_node_return_chunks_received_total", "dl_node_ba_msgs_sent_total",
                     "dl_node_ba_decisions_total", "dl_peer_sent_bytes_total",
                     "dl_peer_sent_frames_total", "dl_peer_shaper_waits_total",
                     "dl_peer_dropped_bytes_total", "dl_loop_wakes_total", "dl_loop_tasks_total",
                     "dl_loop_drains_total", "dl_bufpool_hits_total",
                     "dl_bufpool_fresh_allocs_total", "dl_mempool_dropped_total",
                     "dl_store_fsyncs_total", "dl_store_appended_bytes_total",
                     "dl_store_appended_records_total", "dl_store_drains_total"]:
            met.series_sum(self.s, name)
        met.histogram_delta_quantile(None, self.s, "dl_loop_task_us", 0.99, 'loop="home"')
        met.histogram_delta_quantile(None, self.s, "dl_store_drain_us", 0.99)

    def test_missing_series_is_an_error_not_zero(self):
        with self.assertRaises(met.MissingSeries):
            met.series_sum(self.s, "dl_node_renamed_total")
        with self.assertRaises(met.MissingSeries):
            met.series_sum(self.s, "dl_peer_sent_bytes_total", 'peer="9"')
        with self.assertRaises(met.MissingSeries):
            met.histogram_delta_quantile(None, self.s, "dl_no_such_us", 0.5)

    def test_garbage_line_is_rejected(self):
        with self.assertRaises(ValueError):
            met.parse_prometheus("dl_node_epoch_frontier\n")

    def test_histogram_quantile_matches_bucket_walk(self):
        # Whole-history quantiles: the first bucket whose cumulative count
        # reaches q of the total.
        buckets = sorted((float(l.split('le="')[1].split('"')[0]), v)
                         for (n, l), v in self.s.items()
                         if n == "dl_loop_task_us_bucket" and 'loop="home"' in l
                         and "+Inf" not in l)
        total = self.s[("dl_loop_task_us_count", 'loop="home"')]
        for q in (0.5, 0.9, 0.99):
            want = next(le for le, c in buckets if c >= q * total)
            got = met.histogram_delta_quantile(None, self.s, "dl_loop_task_us", q,
                                               'loop="home"')
            self.assertEqual(got, want)


class HistogramDelta(unittest.TestCase):
    def test_delta_between_sparse_scrapes(self):
        h = 'dl_x_us_bucket{le="%s"}'
        before = met.parse_prometheus("\n".join([
            h % 3 + " 5", h % "+Inf" + " 5"]))
        after = met.parse_prometheus("\n".join([
            h % 3 + " 5", h % 10 + " 15", h % 20 + " 16", h % "+Inf" + " 16"]))
        # 11 new observations: 10 at <= 10, one at <= 20.
        self.assertEqual(met.histogram_delta_quantile(before, after, "dl_x_us", 0.5), 10)
        self.assertEqual(met.histogram_delta_quantile(before, after, "dl_x_us", 0.99), 20)
        self.assertEqual(met.histogram_delta_quantile(after, after, "dl_x_us", 0.5), 0)


class Statistics(unittest.TestCase):
    def test_spread_is_quartile_distance_over_median(self):
        values = [9, 10, 10, 10, 11, 12, 8, 10, 10, 10]
        q1, q2, q3 = met.quartiles(values)
        self.assertAlmostEqual(met.spread(values), (q3 - q1) / q2)
        self.assertEqual(met.spread([5.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
