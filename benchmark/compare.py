#!/usr/bin/env python3
"""Compare two sets of dlbench results metric by metric.

    python3 benchmark/compare.py BASE NEW

BASE and NEW are each a result file (run-*.json, written by run.py --out) or
a directory of them. End-to-end metrics are compared over the untraced runs
of each (workload, metric) pair, using the median over the runs and the
metric's bound from BENCHMARK.json (metrics.EXTRA for metrics it does not
list):

  ok          NEW's median is no worse than BASE's by more than the bound
  regressed   worse by more than the bound while the spread is within it
  unresolved  the run-to-run spread (quartile distance / median, in either
              set) is wider than the bound, unless every NEW run reads
              better than every BASE run

A metric with bound 0 (sim_dl_over_hb) is deterministic per seed and must
match exactly, seed by seed. Per-layer medians from traced runs are listed
for information. A run that failed a correctness check counts as regressed.

Exit status: 1 if any pair regressed, 2 on unusable input, else 0.
"""

import glob
import json
import os
import sys

import metrics as met


def load(path):
    files = sorted(glob.glob(os.path.join(path, "run-*.json"))) if os.path.isdir(path) else [path]
    if not files:
        raise ValueError("no run-*.json under %s" % path)
    runs = []
    for p in files:
        with open(p) as f:
            doc = json.load(f)
        if doc.get("schema") != "dlbench-v1":
            raise ValueError("%s is not a dlbench-v1 result file" % p)
        runs += doc["runs"]
    return runs


def verdict(metric, base, new):
    """(verdict, relative worsening, spread) for two lists of values."""
    b, n = met.median(base), met.median(new)
    sign = 1 if metric.better == met.LOWER else -1
    worse = sign * (n - b) / abs(b) if b else 0.0
    spread = max(met.spread(base), met.spread(new))
    if (max(new) < min(base)) if sign > 0 else (min(new) > max(base)):
        return "ok", worse, spread
    if spread > metric.bound:
        return "unresolved", worse, spread
    if worse > metric.bound:
        return "regressed", worse, spread
    return "ok", worse, spread


def exact_verdict(base_runs, new_runs, name):
    """Seed-by-seed equality for deterministic metrics."""
    b = {r["seed"]: r["metrics"][name] for r in base_runs if name in r["metrics"]}
    n = {r["seed"]: r["metrics"][name] for r in new_runs if name in r["metrics"]}
    common = set(b) & set(n)
    if not common:
        return "unresolved"
    return "ok" if all(b[s] == n[s] for s in common) else "regressed"


def group(runs, traced):
    out = {}
    for r in runs:
        if r["traced"] == traced:
            out.setdefault(r["workload"], []).append(r)
    return out


def compare(base_runs, new_runs, out=sys.stdout):
    """Prints the comparison; returns the list of (workload, metric, verdict)."""
    rows = []
    base_e2e, new_e2e = group(base_runs, False), group(new_runs, False)
    out.write("%-12s %-16s %14s %14s %8s %6s  %s\n" % (
        "workload", "metric", "base median", "new median", "change", "bound", "verdict"))
    for wl in sorted(set(base_e2e) & set(new_e2e)):
        b_runs, n_runs = base_e2e[wl], new_e2e[wl]
        failed = [r for r in n_runs if r["errors"]]
        if failed:
            rows.append((wl, "correctness", "regressed"))
            out.write("%-12s %-16s %s\n" % (wl, "correctness",
                                             "regressed: " + "; ".join(failed[0]["errors"])))
        names = [k for k in b_runs[0]["metrics"]
                 if met.CATALOGUE[k].bound is not None and k in n_runs[0]["metrics"]]
        for name in names:
            m = met.CATALOGUE[name]
            bv = [r["metrics"][name] for r in b_runs]
            nv = [r["metrics"][name] for r in n_runs]
            if m.bound == 0:
                v, worse, spread = exact_verdict(b_runs, n_runs, name), 0.0, 0.0
            else:
                v, worse, spread = verdict(m, bv, nv)
            rows.append((wl, name, v))
            change = (met.median(nv) - met.median(bv)) / abs(met.median(bv)) * 100 \
                if met.median(bv) else 0.0
            out.write("%-12s %-16s %14.4g %14.4g %+7.1f%% %5.0f%%  %s (spread %.1f%%)\n" % (
                wl, name, met.median(bv), met.median(nv), change, m.bound * 100, v,
                spread * 100))
    base_l, new_l = group(base_runs, True), group(new_runs, True)
    for wl in sorted(set(base_l) & set(new_l)):
        out.write("\nper-layer medians, %s (information only):\n" % wl)
        for name in base_l[wl][0]["metrics"]:
            if met.CATALOGUE[name].bound is not None or name not in new_l[wl][0]["metrics"]:
                continue
            bv = met.median([r["metrics"][name] for r in base_l[wl]])
            nv = met.median([r["metrics"][name] for r in new_l[wl]])
            out.write("  %-32s %12.4g -> %12.4g %s\n" % (name, bv, nv,
                                                         met.CATALOGUE[name].unit))
    return rows


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    try:
        base, new = load(argv[0]), load(argv[1])
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write("compare: %s\n" % e)
        return 2
    rows = compare(base, new)
    counts = {v: sum(1 for r in rows if r[2] == v) for v in ("ok", "regressed", "unresolved")}
    print("\n%d ok, %d regressed, %d unresolved" % (
        counts["ok"], counts["regressed"], counts["unresolved"]))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
