"""Metric catalogue and the arithmetic shared by run.py and compare.py.

CATALOGUE gives every metric the benchmark prints its unit, direction and
regression bound (None for per-layer metrics, which have none). For the
metrics BENCHMARK.json lists, these come from BENCHMARK.json; EXTRA declares
the rest. What each metric means and what it should move is in README.md's
glossary.
"""

import collections
import json
import math
import os
import re
import statistics

LOWER, HIGHER = "lower", "higher"

Metric = collections.namedtuple("Metric", "unit better bound")

# Metrics the benchmark prints that BENCHMARK.json does not list.
EXTRA = {
    # The CPU time of the same work drifts with the host's vCPU speed: two
    # passes of one commit, one after the other, differed by 40% (README.md).
    "cpu_ms_per_ktx": Metric("ms", LOWER, 0.25),
    # sim_geo16. The sweep's wall time and memory grow with the work a
    # seed's traces allow, so the speed that is gated is per simulated tx.
    # Like lan_peak's throughput it follows the host's vCPU speed.
    "sim_tx_per_s": Metric("tx/s", HIGHER, 0.25),
    "sim_dl_over_hb": Metric("ratio", HIGHER, 0.0),  # deterministic per seed
    # Per-layer metrics that only some workloads produce, or that no
    # optimisation is expected to move.
    "client.mempool_drops_per_ktx": Metric("count", LOWER, None),
    "net.dropped_bytes": Metric("B", LOWER, None),
    "storage.drain_p99_us": Metric("us", LOWER, None),
    "sim.wall_s": Metric("s", LOWER, None),
    "sim.peak_rss_mb": Metric("MB", LOWER, None),
    "sim.scenario_s.HB": Metric("s", LOWER, None),
    "sim.scenario_s.HBLink": Metric("s", LOWER, None),
    "sim.scenario_s.DLCoupled": Metric("s", LOWER, None),
    "sim.scenario_s.DL": Metric("s", LOWER, None),
    "sim.vsec_per_s": Metric("1/s", HIGHER, None),
    "sim.high_frac": Metric("ratio", LOWER, None),
    "sim.setup_ms": Metric("ms", LOWER, None),
}

with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _f:
    CONTRACT = json.load(_f)

CATALOGUE = dict(EXTRA)
CATALOGUE.update({e["name"]: Metric(e["unit"], e["better"], e["bound"])
                  for e in CONTRACT["end_to_end"]})
CATALOGUE.update({e["name"]: Metric(e["unit"], e["better"], None)
                  for e in CONTRACT["per_layer"]})


# --- statistics ----------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


# --- Prometheus text exposition -------------------------------------------

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)$')


def parse_prometheus(text):
    """{(name, labels)} -> float, labels being the raw text between braces
    with any le="..." pair kept (histogram buckets stay distinct)."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError("unparsable exposition line: %r" % line)
        out[(m.group(1), m.group(3) or "")] = float(m.group(4))
    return out


class MissingSeries(Exception):
    pass


def series_sum(samples, name, label_filter=""):
    """Sum of every series of `name` whose labels contain `label_filter`.
    A name with no series at all raises MissingSeries: a renamed metric must
    fail loudly, never read as 0."""
    found = [v for (n, l), v in samples.items() if n == name and label_filter in l]
    if not found:
        raise MissingSeries(name + ("{%s}" % label_filter if label_filter else ""))
    return sum(found)


def _buckets(samples, name, label_filter):
    out = {}
    for (n, labels), v in samples.items():
        if n != name + "_bucket" or label_filter not in labels:
            continue
        le = re.search(r'le="([^"]*)"', labels).group(1)
        out[math.inf if le == "+Inf" else float(le)] = v
    if not out:
        raise MissingSeries(name + "_bucket")
    return out


def histogram_delta_quantile(before, after, name, q, label_filter=""):
    """Quantile of the observations made between two scrapes of a sparse
    cumulative histogram, as the upper bound of the bucket holding it (at
    most 12.5% above the true value for the registry's log-linear buckets)."""
    b0 = _buckets(before, name, label_filter) if before else {}
    b1 = _buckets(after, name, label_filter)
    edges = sorted(set(b0) | set(b1))

    def cum(b, edge):  # sparse: an absent edge holds the cumulative below it
        best = 0.0
        for e, v in b.items():
            if e <= edge:
                best = max(best, v)
        return best

    delta = [(e, cum(b1, e) - cum(b0, e)) for e in edges]
    total = delta[-1][1] if delta else 0
    if total <= 0:
        return 0.0
    finite = [e for e in edges if not math.isinf(e)]
    for e, c in delta:
        if c >= q * total:
            return finite[-1] if math.isinf(e) and finite else e
    return 0.0


def ratio(num, den):
    return num / den if den else 0.0
