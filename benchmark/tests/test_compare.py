"""compare.py verdicts on synthetic result sets."""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402


def runs(values, metric="commit_p50_ms", workload="lan_durable", traced=False, errors=()):
    return [{"workload": workload, "seed": i + 1, "traced": traced, "errors": list(errors),
             "attempted": 100, "failed": len(errors),
             "metrics": {metric: v}} for i, v in enumerate(values)]


def verdicts(base, new):
    return {(w, m): v for w, m, v in compare.compare(base, new, out=io.StringIO())}


class Verdicts(unittest.TestCase):
    def test_same_numbers_are_ok(self):
        v = verdicts(runs([10, 10.2, 9.9, 10.1, 10]), runs([10.1, 10, 9.8, 10.2, 10]))
        self.assertEqual(v[("lan_durable", "commit_p50_ms")], "ok")

    def test_worse_beyond_bound_with_tight_spread_regresses(self):
        v = verdicts(runs([10, 10.1, 9.9, 10, 10]), runs([13, 13.1, 12.9, 13, 13]))
        self.assertEqual(v[("lan_durable", "commit_p50_ms")], "regressed")

    def test_worse_within_bound_is_ok(self):
        v = verdicts(runs([10, 10.1, 9.9, 10, 10]), runs([10.5, 10.6, 10.4, 10.5, 10.5]))
        self.assertEqual(v[("lan_durable", "commit_p50_ms")], "ok")

    def test_spread_wider_than_bound_is_unresolved(self):
        v = verdicts(runs([5, 10, 15, 8, 12]), runs([6, 13, 18, 9, 14]))
        self.assertEqual(v[("lan_durable", "commit_p50_ms")], "unresolved")

    def test_wide_spread_but_every_new_run_better_is_ok(self):
        v = verdicts(runs([20, 30, 25, 40, 22]), runs([5, 10, 15, 8, 12]))
        self.assertEqual(v[("lan_durable", "commit_p50_ms")], "ok")

    def test_higher_is_better_metric_drop_regresses(self):
        base = runs([1000, 1001, 999, 1000, 1000], metric="commit_tps")
        new = runs([600, 601, 599, 600, 600], metric="commit_tps")
        self.assertEqual(verdicts(base, new)[("lan_durable", "commit_tps")], "regressed")

    def test_exact_metric_must_match_seed_by_seed(self):
        base = runs([1.7478, 1.9], metric="sim_dl_over_hb", workload="sim_geo16")
        same = runs([1.7478, 1.9], metric="sim_dl_over_hb", workload="sim_geo16")
        moved = runs([1.7478, 1.91], metric="sim_dl_over_hb", workload="sim_geo16")
        self.assertEqual(verdicts(base, same)[("sim_geo16", "sim_dl_over_hb")], "ok")
        self.assertEqual(verdicts(base, moved)[("sim_geo16", "sim_dl_over_hb")], "regressed")

    def test_failed_correctness_check_regresses(self):
        new = runs([10, 10], errors=["ledgers disagree"])
        v = verdicts(runs([10, 10]), new)
        self.assertEqual(v[("lan_durable", "correctness")], "regressed")

    def test_per_layer_metrics_get_no_verdict(self):
        base = runs([1.0, 1.1], metric="dl.ba_p50_ms", traced=True)
        new = runs([5.0, 5.1], metric="dl.ba_p50_ms", traced=True)
        self.assertEqual(verdicts(base, new), {})


class Main(unittest.TestCase):
    def write(self, d, name, run_list):
        path = os.path.join(d, name)
        with open(path, "w") as f:
            json.dump({"schema": "dlbench-v1", "runs": run_list}, f)
        return path

    def test_exit_codes(self):
        with tempfile.TemporaryDirectory() as d:
            base = self.write(d, "run-a.json", runs([10, 10.1, 9.9]))
            same = self.write(d, "run-b.json", runs([10, 10.1, 10]))
            worse = self.write(d, "run-c.json", runs([20, 20.1, 20]))
            junk = os.path.join(d, "junk.json")
            with open(junk, "w") as f:
                f.write("{}")
            out = sys.stdout
            sys.stdout = io.StringIO()
            try:
                self.assertEqual(compare.main([base, same]), 0)
                self.assertEqual(compare.main([base, worse]), 1)
                self.assertEqual(compare.main([base, junk]), 2)
                self.assertEqual(compare.main([base]), 2)
            finally:
                sys.stdout = out


if __name__ == "__main__":
    unittest.main()
