#!/usr/bin/env python3
"""dlbench: the DispersedLedger benchmark.

    python3 benchmark/run.py [--workload NAME|all] [--seed S] [--seconds T]
                             [--trace 0|1] [--runs K] [--out DIR]

Builds the replica (root project, Release, into build-bench/) and the
benchmark's own tools (benchmark/CMakeLists.txt, same flags), then runs each
workload and prints every metric with its unit. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

  --workload   lan_durable | lan_peak | wan_hetero | sim_geo16 | all
  --seed       workload seed (run k of --runs uses seed + k)
  --seconds    measurement window per run (default: BENCHMARK.json)
  --trace 1    after each untraced run, re-run the workload traced; report
               per-layer metrics (with the tracing overhead) instead of
               end-to-end ones, and print the per-layer table
  --runs K     repeat each workload K times
  --out DIR    write the result file (run-*.json), spans and tables there

Exit status: 0 when every correctness check passed, 1 when one failed, 2
when the benchmark could not build or run at all.
"""

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

import cluster as clus
import metrics as met

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, "build-bench")
TOOLS = os.path.join(BUILD, "dlbench")
DLNODED = os.path.join(BUILD, "dlnoded")

SETUPS = 5  # cluster start-ups per run, timed for setup_s; the last runs the workload

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "lan_durable": {"mode": "open", "rate": 40000, "store": True},
    "lan_peak": {"mode": "closed"},
    "wan_hetero": {"mode": "open", "rate": 2000, "wan": True},
    "sim_geo16": {"sim": True},
}


class BenchError(Exception):
    """The benchmark cannot run (missing source tree, build failure, ...)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no source tree at %s (CMakeLists.txt and src/ are missing)" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                      "-DBUILD_TESTING=OFF"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "dlnoded", "dl_core"])
    if not os.path.isfile(os.path.join(TOOLS, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", TOOLS, "-DCMAKE_BUILD_TYPE=Release",
                      "-DBUILD_TESTING=OFF",
                      "-DDL_CORE_LIB=" + os.path.join(BUILD, "libdl_core.a")])
    steps.append(["cmake", "--build", TOOLS, "-j", jobs])
    with open(os.path.join(BUILD, "dlbench-build.log"), "a") as logf:
        for cmd in steps:
            if subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT,
                               stdin=subprocess.DEVNULL) != 0:
                raise BenchError("build step failed: %s (see %s)" % (" ".join(cmd), logf.name))


def tool(name):
    return os.path.join(TOOLS, name)


# --- generator process -------------------------------------------------------

class Lines:
    """Line reader over a pipe with a timeout, polling `check` meanwhile."""

    def __init__(self, proc):
        self.proc, self.fd, self.buf = proc, proc.stdout.fileno(), b""

    def expect(self, want, timeout, check=None):
        deadline = time.monotonic() + timeout
        while True:
            if b"\n" in self.buf:
                line, self.buf = self.buf.split(b"\n", 1)
                if line.decode().strip() == want:
                    return
                continue
            if check is not None:
                check()
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("generator never printed %r" % want)
            ready, _, _ = select.select([self.fd], [], [], min(left, 0.02))
            if ready:
                chunk = os.read(self.fd, 4096)
                if not chunk:
                    raise BenchError("generator exited before %r (code %s)" % (
                        want, self.proc.wait()))
                self.buf += chunk


def start_cluster(workdir, wl, traced, links, gen_args):
    """Boots a cluster plus a generator and waits until every replica
    committed the generator's probe tx. Returns (cluster, gen, lines,
    seconds from the first replica exec). The generator starts first and
    keeps redialing, so its probe reaches each replica as soon as the
    client port accepts. Retries port collisions."""
    for attempt in range(3):
        d = os.path.join(workdir, "try%d" % attempt)
        c = clus.Cluster(DLNODED, d, store=wl.get("store", False), links=links,
                         traced=traced)
        genlog = open(os.path.join(d, "gen.log"), "w")
        gen = subprocess.Popen(
            [tool("dlbench_gen"), "--ports", ",".join(map(str, c.client_ports))] + gen_args,
            stdout=subprocess.PIPE, stderr=genlog, stdin=subprocess.DEVNULL)
        genlog.close()
        lines = Lines(gen)
        t0 = time.monotonic()
        c.start()
        try:
            lines.expect("ready", 60, c.check_alive)
            return c, gen, lines, time.monotonic() - t0
        except clus.StartupFailed as e:
            log("dlbench: start-up failed, retrying on fresh ports: %s" % e)
            gen.kill()
            gen.wait()
            c.kill()
        except BaseException:
            gen.kill()
            gen.wait()
            c.kill()
            raise
    raise BenchError("cluster failed to start three times")


def wan_links(seed):
    """Every replica's egress: 25 ms +- 5 ms; 0-2 at 3 MB/s, 3 on a trace."""
    trace = os.path.join(BENCH, "traces", "slow_replica.trace")
    out = []
    for i in range(4):
        rate = 'trace = "%s"\n' % trace if i == 3 else "rate = 3000000\n"
        out.append("from = %d\n%sdelay_ms = 25\njitter_ms = 5\nseed = %d\n" % (
            i, rate, seed * 4 + i + 1))
    return out


def cpu_s(snap):
    return sum(r["utime"] + r["stime"] for r in snap)


# --- cluster workloads -------------------------------------------------------

def measured_cluster(workdir, wl, seed, window, traced, links, spans, errors):
    """The measured cluster: start-up, warm-up, a window of `window` seconds
    with counter snapshots at both edges, drain, and the checks. Returns
    (set-up seconds, generator result, snapshot at window start, snapshot
    at window end)."""
    result = os.path.join(workdir, "gen.json")
    args = ["--mode", wl["mode"], "--seed", str(seed), "--window", str(window),
            "--result", result]
    if wl["mode"] == "open":
        args += ["--rate", str(wl["rate"])]
    if traced:
        args += ["--stages"] + (["--spans", spans] if spans else [])
    c = gen = None
    try:
        c, gen, lines, t = start_cluster(workdir, wl, traced, links, args)
        lines.expect("window_start", 60, c.check_alive)  # after the 5 s warm-up
        s0 = c.snapshot(traced)
        lines.expect("window_end", window + 30, c.check_alive)
        s1 = c.snapshot(traced)
        if gen.wait(60) != 0:  # drains for up to 5 s
            raise BenchError("generator failed (see %s)" % os.path.join(c.workdir, "gen.log"))
        codes = c.stop()
        if any(code != 0 for code in codes):
            errors.append("replica exit codes on SIGTERM: %s" % codes)
        agree, common = c.ledgers_agree()
        if not agree or common == 0:
            errors.append("replica ledgers disagree (common prefix %d blocks)" % common)
    finally:
        if gen is not None and gen.poll() is None:
            gen.kill()
            gen.wait()
        if c is not None:
            c.kill()
            c.remove_stores()
    with open(result) as f:
        g = json.load(f)
    if g["failed"] > 0:
        errors.append("%d of %d txs not committed exactly once (%d rejected)" % (
            g["failed"], g["submitted"], g["rejected"]))
    return t, g, s0, s1


def run_cluster(name, wl, seed, seconds, traced, out_dir):
    """SETUPS cluster start-ups, timed for setup_s; the last one runs the
    workload."""
    workdir = os.path.join(BUILD, "runs", "%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    links = wan_links(seed) if wl.get("wan") else []
    errors, setups = [], []
    for k in range(SETUPS - 1):
        c, gen, _, t = start_cluster(os.path.join(workdir, "setup%d" % k), wl, traced, links,
                                     ["--mode", "probe", "--result",
                                      os.path.join(workdir, "probe.json")])
        setups.append(t)
        try:
            if gen.wait(30) != 0:
                errors.append("probe generator failed")
            codes = c.stop()
            if any(code != 0 for code in codes):
                errors.append("replica exit codes on SIGTERM: %s" % codes)
        finally:
            if gen.poll() is None:
                gen.kill()
                gen.wait()
            c.kill()
            c.remove_stores()
    spans = os.path.join(out_dir, "spans-%s-%d.json" % (name, seed)) if out_dir else ""
    t, g, s0, s1 = measured_cluster(os.path.join(workdir, "run"), wl, seed, seconds, traced,
                                   links, spans, errors)
    setups.append(t)

    committed = g["committed_in_window"]
    m = {
        "setup_s": met.median(setups),
        "commit_tps": committed / g["window_s"],
        "commit_p50_ms": g["latency_ms"]["p50"],
        "commit_p99_ms": g["latency_ms"]["p99"],
        "cpu_ms_per_ktx": met.ratio((cpu_s(s1) - cpu_s(s0)) * 1e6, committed),
        "peak_rss_mb": max(r["hwm_mb"] for r in s1),
    }
    detail = {"latency_samples": g["latency_ms"]["count"], "setups_s": setups}
    if traced:
        try:
            m.update(cluster_layers(g, s0, s1, wl, workdir, m["cpu_ms_per_ktx"]))
        except met.MissingSeries as e:
            errors.append("scraped /metrics series missing: %s" % e)
        detail["stage_sum_over_node_p50"] = met.ratio(
            sum(g[s + "_ms"]["p50"] for s in ("ingress", "disperse", "ba", "retrieve", "notify")),
            g["node_ms"]["p50"])
        detail["node_p50_ms"] = g["node_ms"]["p50"]
    if not errors:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"attempted": g["submitted"], "failed": g["failed"], "errors": errors,
            "metrics": m, "detail": detail}


def run_probe(n, block_bytes, store_dir):
    """Times the coding and storage layers; the probe exits non-zero (which
    stops the benchmark) if an output does not read back correctly."""
    result = store_dir + ".json"
    shutil.rmtree(store_dir, ignore_errors=True)
    subprocess.run([tool("dlbench_probe"), "--n", str(n), "--block-bytes",
                    str(max(1, int(block_bytes))), "--store-dir", store_dir,
                    "--result", result], check=True, stdin=subprocess.DEVNULL)
    shutil.rmtree(store_dir, ignore_errors=True)
    with open(result) as f:
        return json.load(f)


def coding_estimates(p, n, blocks_per_ktx, store):
    """Per delivered block the proposer encodes and builds the Merkle tree
    once, and each of the n replicas decodes, re-encodes and re-hashes it
    (the AVID-M retrieval check); with a store each replica appends it."""
    coding = blocks_per_ktx * ((n + 1) * (p["encode_us"] + p["merkle_us"])
                               + n * p["reconstruct_us"]) / 1000
    storage = blocks_per_ktx * n * p["append_sync_us"] / 1000 if store else 0.0
    return coding, storage


def cluster_layers(g, s0, s1, wl, workdir, cpu_ms_per_ktx):
    M0 = [met.parse_prometheus(r["metrics"]) for r in s0]
    M1 = [met.parse_prometheus(r["metrics"]) for r in s1]
    n = len(M1)
    committed = g["committed_in_window"]
    ktx = committed / 1000.0
    window = g["window_s"]
    dt = s1[0]["t"] - s0[0]["t"]

    def d(name, filt=""):
        return sum(met.series_sum(b, name, filt) - met.series_sum(a, name, filt)
                   for a, b in zip(M0, M1))

    def frontier(M):
        return [met.series_sum(x, "dl_node_epoch_frontier") for x in M]

    epochs = d("dl_node_epoch_frontier")
    blocks = d("dl_node_delivered_blocks_total")
    proposed = d("dl_node_proposed_blocks_total")
    sent_bytes = d("dl_peer_sent_bytes_total")
    sent_frames = d("dl_peer_sent_frames_total")
    hits, fresh = d("dl_bufpool_hits_total"), d("dl_bufpool_fresh_allocs_total")
    m = {
        "client.admit_p50_ms": g["ack_ms"]["p50"],
        "client.admit_p99_ms": g["ack_ms"]["p99"],
        "client.ingress_p50_ms": g["ingress_ms"]["p50"],
        "client.ingress_p99_ms": g["ingress_ms"]["p99"],
        "client.notify_p99_ms": g["notify_ms"]["p99"],
        "client.wire_p50_ms": g["wire_ms"]["p50"],
        "client.mempool_drops_per_ktx": met.ratio(d("dl_mempool_dropped_total"), ktx),
        "dl.disperse_p50_ms": g["disperse_ms"]["p50"],
        "dl.disperse_p99_ms": g["disperse_ms"]["p99"],
        "dl.ba_p50_ms": g["ba_ms"]["p50"],
        "dl.ba_p99_ms": g["ba_ms"]["p99"],
        "dl.retrieve_p50_ms": g["retrieve_ms"]["p50"],
        "dl.retrieve_p99_ms": g["retrieve_ms"]["p99"],
        "dl.tx_per_block": met.ratio(d("dl_node_delivered_tx_total"), blocks),
        "dl.epochs_per_s": met.ratio(epochs / n, dt),
        "dl.wasted_blocks_frac": met.ratio(
            d("dl_node_own_blocks_dropped_total") + d("dl_node_proposed_empty_total"),
            proposed),
        "dl.lag_epochs_max": max(max(f) - min(f) for f in (frontier(M0), frontier(M1))),
        "vid.chunks_per_block": met.ratio(d("dl_node_vid_chunks_sent_total"), proposed),
        "vid.return_chunks_per_block": met.ratio(
            d("dl_node_return_chunks_received_total"), blocks),
        "ba.msgs_per_epoch": met.ratio(d("dl_node_ba_msgs_sent_total"), epochs),
        "ba.decisions_per_epoch": met.ratio(d("dl_node_ba_decisions_total"), epochs),
        "net.bytes_per_tx": met.ratio(sent_bytes, committed),
        "net.frames_per_tx": met.ratio(sent_frames, committed),
        "net.bytes_per_frame": met.ratio(sent_bytes, sent_frames),
        "net.loop_wakes_per_ktx": met.ratio(d("dl_loop_wakes_total"), ktx),
        "net.loop_tasks_per_drain": met.ratio(d("dl_loop_tasks_total"),
                                              d("dl_loop_drains_total")),
        "net.loop_task_p99_us": max(
            met.histogram_delta_quantile(a, b, "dl_loop_task_us", 0.99, 'loop="home"')
            for a, b in zip(M0, M1)),
        "net.bufpool_hit_ratio": met.ratio(hits, hits + fresh),
        "net.shaper_waits_per_s": met.ratio(d("dl_peer_shaper_waits_total"), window),
        "net.dropped_bytes": d("dl_peer_dropped_bytes_total"),
        "gen.lag_p99_ms": g["lag_ms"]["p99"],
        "gen.cpu_frac": g["gen_cpu_s"] / window,
    }
    store = wl.get("store", False)
    m.update({
        "storage.fsyncs_per_ktx": met.ratio(d("dl_store_fsyncs_total"), ktx) if store else 0.0,
        "storage.bytes_per_tx": met.ratio(d("dl_store_appended_bytes_total"), committed)
        if store else 0.0,
        "storage.records_per_drain": met.ratio(d("dl_store_appended_records_total"),
                                               d("dl_store_drains_total")) if store else 0.0,
        "storage.drain_p99_us": max(
            met.histogram_delta_quantile(a, b, "dl_store_drain_us", 0.99)
            for a, b in zip(M0, M1)) if store else 0.0,
    })

    # Per-process and per-thread CPU between the two snapshots.
    m["cpu.user_ms_per_ktx"] = met.ratio(
        sum(b["utime"] - a["utime"] for a, b in zip(s0, s1)) * 1000, ktx)
    m["cpu.sys_ms_per_ktx"] = met.ratio(
        sum(b["stime"] - a["stime"] for a, b in zip(s0, s1)) * 1000, ktx)
    ctxsw, hottest = 0.0, 0.0
    for a, b in zip(s0, s1):
        for tid, th in b["threads"].items():
            before = a["threads"].get(tid, {"cpu": 0.0, "ctxsw": 0.0})
            ctxsw += th["ctxsw"] - before["ctxsw"]
            hottest = max(hottest, (th["cpu"] - before["cpu"]) / dt)
    m["cpu.ctxsw_per_ktx"] = met.ratio(ctxsw, ktx)
    m["cpu.hottest_thread_frac"] = hottest

    block_bytes = met.ratio(d("dl_node_delivered_bytes_total"), blocks)
    p = run_probe(n, block_bytes, os.path.join(workdir, "probe-store"))
    blocks_per_ktx = met.ratio(blocks / n, ktx)
    coding, storage = coding_estimates(p, n, blocks_per_ktx, store)
    m.update({
        "coding.encode_us": p["encode_us"],
        "coding.reconstruct_us": p["reconstruct_us"],
        "coding.merkle_us": p["merkle_us"],
        "coding.est_ms_per_ktx": coding,
        "storage.append_sync_us": p["append_sync_us"],
        "cpu.unattributed_ms_per_ktx": cpu_ms_per_ktx - coding - storage,
    })
    return m


# --- simulator workload ------------------------------------------------------

def run_sim(seed, seconds, traced, out_dir):
    workdir = os.path.join(BUILD, "runs", "sim_geo16-%d-%d" % (seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    result = os.path.join(workdir, "sim.json")
    code = subprocess.call([tool("dlbench_sim"), "--seed", str(seed), "--seconds",
                            str(seconds), "--result", result], stdin=subprocess.DEVNULL)
    if code != 0 and not os.path.isfile(result):
        raise BenchError("dlbench_sim failed with %d" % code)
    with open(result) as f:
        s = json.load(f)
    errors = []
    if not s["deterministic"]:
        errors.append("sweep JSON differed between passes")
    if seed == 8:
        with open(os.path.join(BENCH, "golden", "sim_geo16.sha256")) as f:
            golden = f.read().split()[0]
        if s["json_sha256"] != golden:
            errors.append("seed-8 sweep JSON sha256 %s != golden %s" % (s["json_sha256"], golden))
    m = {
        "sim_tx_per_s": s["ledger_tx_per_pass"] / s["pass_s"],
        "sim_dl_over_hb": s["dl_over_hb"],
    }
    if traced:
        dl = s["dl"]
        nodes = dl["nodes"]
        ktx = s["ledger_tx_per_pass"] * s["passes"] / 1000
        dl_ktx = dl["ledger_tx"] / 1000
        blocks = dl["delivered_blocks"] / nodes
        m.update({"sim.scenario_s." + k: v for k, v in s["scenario_s"].items()})
        m.update({
            "sim.wall_s": s["pass_s"],
            "sim.peak_rss_mb": s["peak_rss_mb"],
            "sim.vsec_per_s": s["virtual_s_per_pass"] / s["pass_s"],
            "sim.high_frac": dl["high_frac"],
            "sim.setup_ms": s["setup_s"] * 1000,
            "dl.tx_per_block": met.ratio(dl["ledger_tx"], blocks),
            "dl.epochs_per_s": dl["epochs"] / dl["virtual_s"],
            "dl.wasted_blocks_frac": met.ratio(dl["own_dropped"] + dl["proposed_empty"],
                                               dl["proposed_blocks"]),
            "vid.chunks_per_block": met.ratio(dl["vid_chunks_sent"], dl["proposed_blocks"]),
            "vid.return_chunks_per_block": met.ratio(dl["return_chunks_received"],
                                                     dl["delivered_blocks"]),
            "ba.msgs_per_epoch": met.ratio(dl["ba_msgs_sent"], nodes * dl["epochs"]),
            "ba.decisions_per_epoch": met.ratio(dl["ba_decisions"], nodes * dl["epochs"]),
            "net.bytes_per_tx": met.ratio(dl["egress_bytes"], dl["ledger_tx"]),
            "cpu.user_ms_per_ktx": s["cpu_user_s"] * 1000 / ktx,
            "cpu.sys_ms_per_ktx": s["cpu_sys_s"] * 1000 / ktx,
            "cpu.ctxsw_per_ktx": s["ctxsw"] / ktx,
            "cpu.hottest_thread_frac": (s["cpu_user_s"] + s["cpu_sys_s"])
            / (s["pass_s"] * s["passes"]),
        })
        p = run_probe(nodes, met.ratio(dl["delivered_bytes"], dl["delivered_blocks"]),
                      os.path.join(workdir, "probe-store"))
        coding, _ = coding_estimates(p, nodes, met.ratio(blocks, dl_ktx), False)
        m.update({
            "coding.encode_us": p["encode_us"],
            "coding.reconstruct_us": p["reconstruct_us"],
            "coding.merkle_us": p["merkle_us"],
            "coding.est_ms_per_ktx": coding,
            "storage.append_sync_us": p["append_sync_us"],
        })
    shutil.rmtree(workdir, ignore_errors=True)
    return {"attempted": 4 * s["passes"], "failed": 0 if not errors else 1,
            "errors": errors, "metrics": m,
            "detail": {"passes": s["passes"], "json_sha256": s["json_sha256"]}}


# --- output --------------------------------------------------------------------

def print_run(r):
    state = "ok" if not r["errors"] else "FAILED: " + "; ".join(r["errors"])
    print("== %s seed=%d %s: %s" % (r["workload"], r["seed"],
                                     "traced" if r["traced"] else "untraced", state))
    for name, v in r["metrics"].items():
        print("  %-32s %14.4f %s" % (name, v, met.CATALOGUE[name].unit))
    sys.stdout.flush()


def layer_table(r):
    """The 'where the time and the CPU went' table of one traced run."""
    m, out = r["metrics"], []
    out.append("### %s (seed %d)" % (r["workload"], r["seed"]))
    if "client.ingress_p50_ms" in m:
        out.append("")
        out.append("Where the time went (p50 / p99 ms, %d window txs):" %
                   r["detail"]["latency_samples"])
        out.append("")
        out.append("| stage | p50 | p99 |")
        out.append("|---|---|---|")
        for label, key in [("gen lag (due->submit)", "gen.lag"), ("admit (submit->ack)",
                           "client.admit"), ("ingress", "client.ingress"),
                           ("disperse", "dl.disperse"), ("ba", "dl.ba"),
                           ("retrieve", "dl.retrieve"), ("notify", "client.notify"),
                           ("wire (client - node)", "client.wire")]:
            p50 = m.get(key + "_p50_ms")
            p99 = m.get(key + "_p99_ms")
            out.append("| %s | %s | %s |" % (label, "-" if p50 is None else "%.2f" % p50,
                                            "-" if p99 is None else "%.2f" % p99))
        out.append("")
        out.append("Stage p50s sum to %.2fx the node-reported p50 (%.2f ms)." % (
            r["detail"]["stage_sum_over_node_p50"], r["detail"]["node_p50_ms"]))
    out.append("")
    out.append("Where the CPU went:")
    out.append("")
    out.append("| part | value |")
    out.append("|---|---|")
    rows = [("user ms/ktx", "cpu.user_ms_per_ktx"), ("sys ms/ktx", "cpu.sys_ms_per_ktx"),
            ("coding estimate ms/ktx", "coding.est_ms_per_ktx"),
            ("unattributed ms/ktx", "cpu.unattributed_ms_per_ktx"),
            ("hottest thread (share of a core)", "cpu.hottest_thread_frac")]
    for label, key in rows:
        if key in m:
            out.append("| %s | %.3f |" % (label, m[key]))
    if "obs.trace_overhead_pct" in m:
        out.append("| trace overhead | %.1f%% |" % m["obs.trace_overhead_pct"])
    out.append("")
    out.append("Per-layer metrics (what each should move: benchmark/README.md):")
    out.append("")
    out.append("| metric | value | unit |")
    out.append("|---|---|---|")
    for name, v in m.items():
        c = met.CATALOGUE[name]
        if c.bound is None:
            out.append("| %s | %.4g | %s |" % (name, v, c.unit))
    return "\n".join(out) + "\n"


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=8)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args(argv)
    # A SIGTERM unwinds like an exception, so every replica and generator
    # this run started is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names) or args.runs < 1:
        log("dlbench: unknown workload %r (have: %s, all)" % (args.workload,
                                                               ", ".join(WORKLOADS)))
        return 2
    spec = met.CONTRACT
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        build()
    except (BenchError, OSError) as e:
        log("dlbench: %s" % e)
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    # End-to-end numbers come only from untraced runs; a traced run is a
    # re-run of the same workload and seed.
    modes = [False, True] if args.trace else [False]
    runs, tables = [], []
    try:
        for name in names:
            wl = WORKLOADS[name]
            for k in range(args.runs):
                seed = args.seed + k
                plain = None
                for traced in modes:
                    r = (run_sim(seed, seconds, traced, args.out) if wl.get("sim")
                         else run_cluster(name, wl, seed, seconds, traced, args.out))
                    r.update({"workload": name, "seed": seed, "traced": traced})
                    if traced and plain is not None and "cpu_ms_per_ktx" in plain["metrics"]:
                        base = plain["metrics"]["cpu_ms_per_ktx"]
                        r["metrics"]["obs.trace_overhead_pct"] = met.ratio(
                            100 * (r["metrics"]["cpu_ms_per_ktx"] - base), base)
                    print_run(r)
                    runs.append(r)
                    if traced:
                        tables.append(layer_table(r))
                    plain = r
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        log("dlbench: %s" % e)
        return 2

    for t in tables:
        print(t)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    if args.out:
        with open(os.path.join(args.out, "run-%s.json" % stamp), "w") as f:
            json.dump({"schema": "dlbench-v1", "seconds": seconds, "cpus": os.cpu_count(),
                       "runs": runs}, f, indent=1, sort_keys=True)
            f.write("\n")
        if tables:
            with open(os.path.join(args.out, "layers-%s.md" % stamp), "w") as f:
                f.write("\n".join(tables))

    correct = all(not r["errors"] for r in runs)
    if len(runs) == len(modes):  # one workload, one seed: the contract's form
        want = [e["name"] for e in spec["per_layer" if args.trace else "end_to_end"]]
        got = runs[-1]["metrics"]
        if all(w in got for w in want):
            got = {w: got[w] for w in want}
        metrics_out = {k: {"value": v, "unit": met.CATALOGUE[k].unit} for k, v in got.items()}
    else:
        metrics_out = {}
        for r in runs:
            for k, v in r["metrics"].items():
                metrics_out.setdefault("%s.%s" % (r["workload"], k), []).append(v)
        metrics_out = {k: {"value": met.median(v), "unit": met.CATALOGUE[k.split(".", 1)[1]].unit}
                       for k, v in metrics_out.items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(int(r["attempted"]) for r in runs),
                      "failed": sum(int(r["failed"]) for r in runs),
                      "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
