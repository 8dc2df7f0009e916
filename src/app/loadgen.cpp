// dl_loadgen — end-to-end workload injector for a running cluster.
//
// Opens N dl_client connections spread round-robin over the cluster's
// client ports, offers a Poisson transaction load (same parameters as the
// simulator's workload::PoissonTxGen: bytes/s, tx size, seed), and measures
// what the paper calls confirmation latency from the OUTSIDE: wall-clock
// submit→commit per transaction, through real sockets, real mempools, and
// the real dispersal→BA→retrieval pipeline.
//
// Results land as dl-perf-v1 rows (BENCH_<name>.json/csv via
// runner::report, the same schema CI tracks for micro_sim/micro_coding):
//
//   commit_throughput   txs   committed count over the measured wall time
//   commit_goodput      bytes committed payload bytes over the same window
//   submit_commit_p50   ns    client-measured latency percentile
//   submit_commit_p95   ns      "
//   submit_commit_p99   ns      "
//   stage_<s>_p50       ns    node-reported per-stage latency median, for
//                             s in ingress/disperse/ba/retrieve/notify
//                             (the TxCommitted StageLatencies breakdown)
//
// Exit status: 0 iff every submitted transaction was acked and observed
// committed exactly once within --max-seconds.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/dl_client.hpp"
#include "common/rng.hpp"
#include "metrics/metrics.hpp"
#include "net/cluster_config.hpp"
#include "net/event_loop.hpp"
#include "obs/statline.hpp"
#include "runner/report.hpp"
#include "workload/txgen.hpp"

namespace {

using namespace dl;

struct Flags {
  std::string config;
  int connections = 4;
  std::uint64_t count = 2000;       // total txs to submit (0: until --duration)
  double duration = 0;              // seconds of offered load when count == 0
  workload::TxGenParams load;       // rate_bytes_per_sec, tx_bytes, seed
  std::string out_dir;              // default: $DL_BENCH_OUT or "."
  std::string name = "loadgen";
  double max_seconds = 120;
  double progress = 0;  // seconds; 0 = no periodic progress line
  bool quiet = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --config FILE [options]\n"
      "  --config FILE        cluster TOML with client_port entries (required)\n"
      "  --connections N      client connections, round-robin over nodes (default 4)\n"
      "  --count T            total transactions to submit (default 2000; 0 = use --duration)\n"
      "  --duration S         offered-load window in seconds when --count 0\n"
      "  --rate-bytes B       offered load, payload bytes/sec across all connections (default 1000000)\n"
      "  --tx-bytes B         payload bytes per transaction (default 250)\n"
      "  --seed S             workload RNG seed (default 1)\n"
      "  --name NAME          bench name for BENCH_<NAME>.json/csv (default loadgen)\n"
      "  --out DIR            where result files land (default $DL_BENCH_OUT or .)\n"
      "  --max-seconds S      watchdog: exit 1 if not drained by then (default 120)\n"
      "  --progress S         log in-flight/committed/latency every S seconds\n"
      "  --quiet              suppress progress output\n",
      argv0);
}

bool parse_flags(int argc, char** argv, Flags& f) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--config" && (v = next())) {
      f.config = v;
    } else if (a == "--connections" && (v = next())) {
      f.connections = std::atoi(v);
    } else if (a == "--count" && (v = next())) {
      f.count = static_cast<std::uint64_t>(std::atoll(v));
    } else if (a == "--duration" && (v = next())) {
      f.duration = std::atof(v);
    } else if (a == "--rate-bytes" && (v = next())) {
      f.load.rate_bytes_per_sec = std::atof(v);
    } else if (a == "--tx-bytes" && (v = next())) {
      f.load.tx_bytes = static_cast<std::size_t>(std::atoll(v));
    } else if (a == "--seed" && (v = next())) {
      f.load.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (a == "--name" && (v = next())) {
      f.name = v;
    } else if (a == "--out" && (v = next())) {
      f.out_dir = v;
    } else if (a == "--max-seconds" && (v = next())) {
      f.max_seconds = std::atof(v);
    } else if (a == "--progress" && (v = next())) {
      f.progress = std::atof(v);
    } else if (a == "--quiet") {
      f.quiet = true;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  if (f.config.empty() || f.connections < 1 ||
      (f.count == 0 && f.duration <= 0) || f.load.tx_bytes < 16 ||
      f.load.rate_bytes_per_sec <= 0) {
    usage(argv[0]);
    return false;
  }
  if (f.out_dir.empty()) {
    const char* env = std::getenv("DL_BENCH_OUT");
    f.out_dir = env != nullptr && *env != '\0' ? env : ".";
  }
  return true;
}

// One Poisson-clocked submission stream feeding one DlClient.
struct Stream {
  std::unique_ptr<client::DlClient> cli;
  Rng rng{1};
  double tx_per_sec = 1;
  std::uint64_t quota = 0;  // txs this stream still has to submit (count mode)
  std::uint64_t submitted = 0;
  double next_due = 0;  // loop time of the next Poisson arrival
  int target_node = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, flags)) return 2;

  std::string err;
  auto cluster = net::ClusterConfig::load(flags.config, &err);
  if (!cluster.has_value()) {
    std::fprintf(stderr, "dl_loadgen: bad config: %s\n", err.c_str());
    return 2;
  }

  net::EventLoop loop;
  const int n = cluster->n;
  std::vector<Stream> streams(static_cast<std::size_t>(flags.connections));
  metrics::Percentile latency;           // client-measured, seconds
  metrics::Percentile node_latency;      // node-measured, seconds
  // Node-reported stage breakdown (seconds); index matches kStageNames.
  constexpr const char* kStageNames[] = {"ingress", "disperse", "ba",
                                         "retrieve", "notify"};
  metrics::Percentile stage_lat[5];
  std::unordered_map<std::uint64_t, double> submit_times;  // (conn<<32|seq)
  std::uint64_t total_submitted = 0, total_committed = 0, total_rejected = 0;
  std::uint64_t committed_bytes = 0;
  double first_submit_at = -1, last_commit_at = 0;
  std::vector<std::uint64_t> commit_epochs;  // monotonicity self-check

  for (int c = 0; c < flags.connections; ++c) {
    Stream& s = streams[static_cast<std::size_t>(c)];
    s.target_node = c % n;
    const net::NodeAddr& addr =
        cluster->nodes[static_cast<std::size_t>(s.target_node)];
    if (addr.client_port == 0) {
      std::fprintf(stderr,
                   "dl_loadgen: node %d has no client_port in %s\n",
                   s.target_node, flags.config.c_str());
      return 2;
    }
    s.rng = Rng(flags.load.seed ^ (0xC11E47ULL + static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ULL));
    s.tx_per_sec = flags.load.rate_bytes_per_sec /
                   static_cast<double>(flags.load.tx_bytes) /
                   static_cast<double>(flags.connections);
    client::DlClient::Options copt;
    // Session identity must be unique across CONCURRENT loadgen processes
    // too (same seed), or the gateways would treat them as one session.
    copt.nonce = (flags.load.seed << 16) ^ 0xD1C11E57ULL ^
                 (static_cast<std::uint64_t>(getpid()) << 32) ^
                 (static_cast<std::uint64_t>(c) + 1);
    s.cli = std::make_unique<client::DlClient>(loop, addr.host,
                                               addr.client_port, copt);
  }
  if (flags.count != 0) {
    // Spread the fixed budget over the streams (first streams get the rest).
    const std::uint64_t per = flags.count / static_cast<std::uint64_t>(flags.connections);
    std::uint64_t extra = flags.count % static_cast<std::uint64_t>(flags.connections);
    for (Stream& s : streams) {
      s.quota = per + (extra > 0 ? 1 : 0);
      if (extra > 0) --extra;
    }
  }

  bool failed = false;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    Stream& s = streams[c];
    s.cli->set_commit_callback([&, c](std::uint64_t seq, std::uint64_t epoch,
                                      std::uint32_t /*proposer*/,
                                      double node_lat,
                                      const net::StageLatencies& st) {
      const auto key = (static_cast<std::uint64_t>(c) << 32) | seq;
      const auto it = submit_times.find(key);
      if (it != submit_times.end()) {
        latency.add(loop.now() - it->second);
        submit_times.erase(it);
      }
      node_latency.add(node_lat);
      const std::uint32_t stage_us[5] = {st.ingress_us, st.disperse_us,
                                         st.ba_us, st.retrieve_us,
                                         st.notify_us};
      for (int k = 0; k < 5; ++k) stage_lat[k].add(stage_us[k] / 1e6);
      ++total_committed;
      committed_bytes += flags.load.tx_bytes;
      last_commit_at = loop.now();
      commit_epochs.push_back(epoch);
    });
    s.cli->set_ack_callback([&](std::uint64_t, net::TxStatus st) {
      if (st == net::TxStatus::Full || st == net::TxStatus::TooLarge) {
        ++total_rejected;  // terminal: this run can no longer reach 100%
      }
    });
    s.cli->start();
  }

  // Poisson submission: each stream self-schedules on the shared loop.
  // Duration mode measures ELAPSED time from here — the loop clock counts
  // from the process-wide epoch, not from this call.
  const double t0 = loop.now();
  const double stop_at =
      flags.count == 0 ? t0 + flags.duration : 1e18;
  std::vector<std::function<void()>> arrival(streams.size());
  for (std::size_t c = 0; c < streams.size(); ++c) {
    // Arrivals follow an absolute schedule of due times. A timer fires late
    // under load; each firing submits every arrival already due and times
    // it from its due time, so the lateness neither lowers the offered rate
    // nor hides from the latency.
    arrival[c] = [&, c] {
      Stream& s = streams[c];
      const double now = loop.now();
      while (s.next_due <= now) {
        if (flags.count != 0 && s.submitted >= s.quota) return;
        if (s.next_due >= stop_at) return;
        // Unique payload: counter header + deterministic filler, exactly the
        // simulator generator's distinguishable-payload convention.
        Bytes payload = random_bytes(
            flags.load.tx_bytes,
            (static_cast<std::uint64_t>(c) << 40) ^ s.submitted);
        for (int b = 0; b < 8; ++b) {
          payload[static_cast<std::size_t>(b)] =
              static_cast<std::uint8_t>(s.submitted >> (8 * b));
          payload[static_cast<std::size_t>(8 + b)] =
              static_cast<std::uint8_t>((s.cli->nonce()) >> (8 * b));
        }
        const std::uint64_t seq = s.cli->submit(std::move(payload));
        submit_times[(static_cast<std::uint64_t>(c) << 32) | seq] = s.next_due;
        if (first_submit_at < 0) first_submit_at = s.next_due;
        ++s.submitted;
        ++total_submitted;
        s.next_due += s.rng.next_exponential(s.tx_per_sec);
      }
      loop.after(s.next_due - now, arrival[c]);
    };
    Stream& s = streams[c];
    s.next_due = t0 + s.rng.next_exponential(s.tx_per_sec);
    loop.after(s.next_due - t0, arrival[c]);
  }

  // Completion polling + watchdog.
  std::uint64_t last_reported = 0;
  std::function<void()> poll = [&] {
    const bool submitting_done =
        flags.count != 0
            ? total_submitted >= flags.count
            : loop.now() >= stop_at;
    if (!flags.quiet && total_committed >= last_reported + 1000) {
      last_reported = total_committed;
      std::fprintf(stderr, "dl_loadgen: %" PRIu64 "/%" PRIu64 " committed\n",
                   total_committed, total_submitted);
    }
    if (submitting_done && total_committed + total_rejected >= total_submitted) {
      loop.stop();
      return;
    }
    loop.after(0.02, poll);
  };
  loop.after(0.02, poll);

  // Periodic progress line (same k=v delta format as dlnoded
  // --stats-interval, see obs/statline.hpp).
  std::uint64_t prog_submitted = 0, prog_committed = 0;
  double prog_at = loop.now();
  std::function<void()> progress = [&] {
    const double now = loop.now();
    const double dt = now - prog_at;
    obs::StatLine line;
    line.f("t", now - t0)
        .kv("inflight", submit_times.size())
        .kv("committed", total_committed)
        .rate("submit", total_submitted - prog_submitted, dt)
        .rate("commit", total_committed - prog_committed, dt);
    if (!latency.empty()) line.ms("ack_p50", latency.quantile(0.5) * 1e3);
    std::fprintf(stderr, "dl_loadgen: %s\n", line.str().c_str());
    prog_submitted = total_submitted;
    prog_committed = total_committed;
    prog_at = now;
    loop.after(flags.progress, progress);
  };
  if (flags.progress > 0) loop.after(flags.progress, progress);

  bool timed_out = false;
  loop.after(flags.max_seconds, [&] {
    timed_out = true;
    loop.stop();
  });

  loop.run();
  for (Stream& s : streams) s.cli->close();

  if (timed_out) {
    std::fprintf(stderr,
                 "dl_loadgen: TIMEOUT after %.0fs: committed %" PRIu64
                 "/%" PRIu64 " (rejected %" PRIu64 ")\n",
                 flags.max_seconds, total_committed, total_submitted,
                 total_rejected);
    failed = true;
  }
  if (total_rejected > 0) {
    std::fprintf(stderr, "dl_loadgen: %" PRIu64 " transactions rejected\n",
                 total_rejected);
    failed = true;
  }
  if (total_committed != total_submitted) failed = true;

  // Exactly-once + monotone epochs are client-visible invariants; verify.
  for (std::size_t i = 1; i < commit_epochs.size(); ++i) {
    // Commits from different connections interleave, but each node notifies
    // in delivery order; a global sort-check would be wrong for >1 node.
    // With one node (connections all to node 0) this is strict.
    if (n == 1 && commit_epochs[i] < commit_epochs[i - 1]) {
      std::fprintf(stderr, "dl_loadgen: NON-MONOTONE commit epochs\n");
      failed = true;
      break;
    }
  }

  const double wall =
      first_submit_at >= 0 && last_commit_at > first_submit_at
          ? last_commit_at - first_submit_at
          : 0;
  std::vector<runner::PerfRow> rows;
  rows.push_back({"commit_throughput", "txs", total_committed, wall});
  rows.push_back({"commit_goodput", "bytes", committed_bytes, wall});
  auto lat_row = [&](const char* nm, double q) {
    const std::uint64_t ns =
        latency.empty() ? 0
                        : static_cast<std::uint64_t>(latency.quantile(q) * 1e9);
    rows.push_back({nm, "ns", ns, 1.0});
  };
  lat_row("submit_commit_p50", 0.50);
  lat_row("submit_commit_p95", 0.95);
  lat_row("submit_commit_p99", 0.99);
  for (int k = 0; k < 5; ++k) {
    const std::uint64_t ns =
        stage_lat[k].empty()
            ? 0
            : static_cast<std::uint64_t>(stage_lat[k].quantile(0.5) * 1e9);
    rows.push_back({std::string("stage_") + kStageNames[k] + "_p50", "ns", ns,
                    1.0});
  }

  const std::string json_path = flags.out_dir + "/BENCH_" + flags.name + ".json";
  const std::string csv_path = flags.out_dir + "/BENCH_" + flags.name + ".csv";
  {
    std::ofstream json(json_path);
    std::ofstream csv(csv_path);
    runner::write_perf_json(json, flags.name, rows);
    runner::write_perf_csv(csv, rows);
    if (!json || !csv) {
      std::fprintf(stderr, "dl_loadgen: cannot write %s / %s\n",
                   json_path.c_str(), csv_path.c_str());
      failed = true;
    }
  }

  if (!flags.quiet) {
    std::fprintf(stderr,
                 "dl_loadgen: submitted=%" PRIu64 " committed=%" PRIu64
                 " rejected=%" PRIu64 " wall=%.2fs tx/s=%.0f\n",
                 total_submitted, total_committed, total_rejected, wall,
                 wall > 0 ? static_cast<double>(total_committed) / wall : 0);
    if (!latency.empty()) {
      std::fprintf(stderr,
                   "dl_loadgen: submit→commit p50=%.1fms p95=%.1fms p99=%.1fms"
                   " (node-side p50=%.1fms)\n",
                   latency.quantile(0.5) * 1e3, latency.quantile(0.95) * 1e3,
                   latency.quantile(0.99) * 1e3,
                   node_latency.empty() ? 0 : node_latency.quantile(0.5) * 1e3);
    }
    if (!stage_lat[0].empty()) {
      std::fprintf(stderr, "dl_loadgen: node stages p50 (ms):");
      for (int k = 0; k < 5; ++k) {
        std::fprintf(stderr, " %s=%.1f", kStageNames[k],
                     stage_lat[k].quantile(0.5) * 1e3);
      }
      std::fprintf(stderr, "\n");
    }
    std::fprintf(stderr, "dl_loadgen: wrote %s and %s\n", json_path.c_str(),
                 csv_path.c_str());
  }
  return failed ? 1 : 0;
}
