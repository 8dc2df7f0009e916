// dlbench_sim — the sim_geo16 workload: the fig08 scenario set (HB,
// HB-Link, DL-Coupled, DL on the 16-city geo topology at 0.1x bandwidth,
// sigma 0.35, infinite backlog, 60 virtual seconds) run in sequence on one
// SweepRunner thread, the way a simulator user runs a figure sweep.
//
//   dlbench_sim --seed S --seconds T --result FILE
//
// Set-up (materializing the scenario configs, which draws the bandwidth
// traces) is timed separately, several times. Then whole passes over the
// scenario set repeat until T seconds are used, and at least twice; every
// pass must produce byte-identical sweep JSON. The result file carries the
// wall-clock measurements, the sweep JSON's SHA-256, and the DL scenario's
// protocol counters for the per-layer table.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "dlbench.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "workload/topology.hpp"

namespace {

using namespace dl;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Mirrors bench/fig08_geo_throughput.cpp in its default (quick) mode.
std::vector<runner::ScenarioSpec> fig08_specs(std::uint64_t seed) {
  const auto topo = workload::Topology::aws_geo16();
  runner::Sweep sweep;
  sweep.base.family = "fig08";
  sweep.base.n = topo.size();
  sweep.base.topo = runner::TopologySpec::geo16(0.10, 0.35);
  sweep.base.duration = 60.0;
  sweep.base.warmup = 15.0;
  sweep.base.max_block_bytes = 150'000;
  sweep.base.seed = seed;
  sweep.protocols = {runner::Protocol::HB, runner::Protocol::HBLink,
                     runner::Protocol::DLCoupled, runner::Protocol::DL};
  auto specs = sweep.expand();
  for (auto& s : specs) {
    if (s.protocol == runner::Protocol::DL ||
        s.protocol == runner::Protocol::DLCoupled) {
      s.fall_behind_stop = 8;
    }
  }
  return specs;
}

// Transactions in the ledger: every correct node delivers all of them.
double ledger_tx(const runner::ExperimentResult& r) {
  std::uint64_t best = 0;
  for (const auto& n : r.nodes) best = std::max(best, n.stats.delivered_tx_count);
  return static_cast<double>(best);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 8;
  double seconds = 10;
  std::string result_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    if (a == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(argv[i + 1]);
    } else if (a == "--result") {
      result_path = argv[i + 1];
    } else {
      std::fprintf(stderr, "dlbench_sim: unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (result_path.empty() || argc % 2 != 1) {
    std::fprintf(stderr, "usage: dlbench_sim --seed S --seconds T --result FILE\n");
    return 2;
  }

  const auto specs = fig08_specs(seed);
  for (const auto& s : specs) {
    if (const std::string e = runner::validate(s); !e.empty()) {
      std::fprintf(stderr, "dlbench_sim: bad spec: %s\n", e.c_str());
      return 1;
    }
  }

  // Set-up: what a scenario pays before its first event runs.
  std::vector<double> setup;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    std::size_t traces = 0;
    for (const auto& s : specs) traces += s.materialize().net.egress.size();
    setup.push_back(since(t0));
    if (traces == 0) return 1;  // keeps the materialization observable
  }

  runner::SweepRunner pool(1);
  std::vector<double> scenario_s(specs.size(), 0);
  std::vector<std::vector<double>> scenario_runs(specs.size());
  Clock::time_point mark;
  pool.set_progress([&](const runner::ScenarioSpec&, std::size_t done, std::size_t) {
    scenario_runs[done - 1].push_back(since(mark));
    mark = Clock::now();
  });

  const dlbench::SelfUsage u0 = dlbench::self_usage();
  const auto start = Clock::now();
  std::vector<double> pass_s;
  std::vector<runner::ScenarioResult> results;
  std::string digest;
  bool deterministic = true;
  while (pass_s.size() < 2 || since(start) + pass_s.back() <= seconds) {
    const auto t0 = Clock::now();
    mark = t0;
    results = pool.run(specs);
    pass_s.push_back(since(t0));
    const std::string d = sha256(bytes_of(runner::json_string("fig08", results))).hex();
    if (!digest.empty() && d != digest) deterministic = false;
    digest = d;
  }
  const dlbench::SelfUsage u1 = dlbench::self_usage();

  double tx = 0;
  for (const auto& r : results) tx += ledger_tx(r.result);
  const auto& hb = results[0].result;
  const auto& dlr = results[3].result;

  // DL scenario: protocol counters summed over nodes, latency over all txs.
  core::NodeStats sum;
  metrics::Percentile lat;
  double egress = 0;
  for (const auto& n : dlr.nodes) {
    const core::NodeStats& s = n.stats;
    sum.proposed_blocks += s.proposed_blocks;
    sum.proposed_empty_blocks += s.proposed_empty_blocks;
    sum.own_blocks_dropped += s.own_blocks_dropped;
    sum.delivered_blocks += s.delivered_blocks;
    sum.delivered_payload_bytes += s.delivered_payload_bytes;
    sum.vid_chunks_sent += s.vid_chunks_sent;
    sum.return_chunks_received += s.return_chunks_received;
    sum.ba_msgs_sent += s.ba_msgs_sent;
    sum.ba_decisions += s.ba_decisions;
    lat.merge(n.latency_all);
    egress += static_cast<double>(n.egress_high + n.egress_low);
  }
  const double nodes = static_cast<double>(dlr.nodes.size());
  const double dl_epochs = static_cast<double>(dlr.nodes[0].stats.delivered_epochs);

  dlbench::JsonOut counters;
  counters.num("nodes", nodes)
      .num("ledger_tx", ledger_tx(dlr))
      .num("epochs", dl_epochs)
      .num("virtual_s", specs[3].duration)
      .num("proposed_blocks", static_cast<double>(sum.proposed_blocks))
      .num("proposed_empty", static_cast<double>(sum.proposed_empty_blocks))
      .num("own_dropped", static_cast<double>(sum.own_blocks_dropped))
      .num("delivered_blocks", static_cast<double>(sum.delivered_blocks))
      .num("delivered_bytes", static_cast<double>(sum.delivered_payload_bytes))
      .num("vid_chunks_sent", static_cast<double>(sum.vid_chunks_sent))
      .num("return_chunks_received", static_cast<double>(sum.return_chunks_received))
      .num("ba_msgs_sent", static_cast<double>(sum.ba_msgs_sent))
      .num("ba_decisions", static_cast<double>(sum.ba_decisions))
      .num("egress_bytes", egress)
      .num("high_frac", dlr.mean_dispersal_fraction)
      .num("latency_p50_ms", lat.empty() ? 0 : lat.quantile(0.5) * 1e3)
      .num("latency_p99_ms", lat.empty() ? 0 : lat.quantile(0.99) * 1e3)
      .num("latency_count", static_cast<double>(lat.count()));

  dlbench::JsonOut scen;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::string name = runner::to_string(specs[i].protocol);
    name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
    scen.num(name, dlbench::percentile(scenario_runs[i], 0.5));
  }

  dlbench::JsonOut out;
  out.num("passes", static_cast<double>(pass_s.size()))
      .num("setup_s", dlbench::percentile(setup, 0.5))
      .num("pass_s", dlbench::percentile(pass_s, 0.5))
      .num("ledger_tx_per_pass", tx)
      .num("cpu_user_s", u1.user_s - u0.user_s)
      .num("cpu_sys_s", u1.sys_s - u0.sys_s)
      .num("ctxsw", u1.ctxsw - u0.ctxsw)
      .num("peak_rss_mb", dlbench::self_peak_rss_mb())
      .num("dl_over_hb", dlr.aggregate_throughput_bps / hb.aggregate_throughput_bps)
      .num("virtual_s_per_pass", 4 * specs[0].duration)
      .str("json_sha256", digest)
      .num("deterministic", deterministic ? 1 : 0)
      .raw("scenario_s", scen.str())
      .raw("dl", counters.str());
  std::ofstream f(result_path);
  f << out.str() << "\n";
  if (!f) {
    std::fprintf(stderr, "dlbench_sim: cannot write %s\n", result_path.c_str());
    return 1;
  }
  return deterministic ? 0 : 1;
}
