// New scenario family (beyond the paper): one WAN trace, two backends.
//
// Each bench/traces/*.trace file drives a 4-node DispersedLedger cluster
// twice — once on the simulator's FluidLink fluid model, once on the real
// TCP runtime with the TcpEnv egress shaper — plus a third real-runtime leg
// with one mute-but-connected adversary riding the shaped links. The legs
// report goodput and committed epochs as dl-perf-v1 rows, so CI can track
// sim-vs-real drift the same way it tracks events/sec.
//
// Question answered: does the real runtime, shaped by the same trace the
// simulator consumes, commit at a comparable rate — and does one wire-level
// adversary cost more than its f=1 budget? Expected shape: real within a
// small factor of sim (tolerances quantified in docs/PERF.md and pinned by
// tests/wan_crossval_test.cpp), adversary leg mildly slower but live.
#include <memory>
#include <vector>

#include "app/loopback_cluster.hpp"
#include "bench_util.hpp"
#include "dl/node.hpp"
#include "runtime/sim_env.hpp"
#include "sim/simulator.hpp"

using namespace dl;

namespace {

constexpr int kN = 4;

struct LegResult {
  std::uint64_t payload_bytes = 0;
  std::uint64_t epochs = 0;
  double seconds = 0;
};

core::NodeConfig wan_node(int i) {
  core::NodeConfig c = core::NodeConfig::dispersed_ledger(kN, 1, i);
  // Offered load sits between the trace's high and low rates so the fast
  // phases are demand-limited and the slow phases saturate (same regime as
  // tests/wan_crossval_test.cpp).
  c.propose_delay = 0.15;
  c.backlog_tx_bytes = 512;
  c.max_block_bytes = 4096;
  return c;
}

LegResult run_sim_leg(const net::RateSchedule& sched, double duration) {
  sim::NetworkConfig netcfg = sim::NetworkConfig::uniform(kN, 0.02, 250'000);
  for (int i = 0; i < kN; ++i) {
    netcfg.egress[static_cast<std::size_t>(i)] =
        sim::Trace(sched.rates, sched.step);
    // The real shaper paces egress only; keep sim ingress a non-factor.
    netcfg.ingress[static_cast<std::size_t>(i)] = sim::Trace::constant(1e9);
  }
  sim::Simulator sim(netcfg);
  std::vector<std::unique_ptr<runtime::SimEnv>> envs;
  std::vector<std::unique_ptr<core::DlNode>> nodes;
  LegResult res;
  for (int i = 0; i < kN; ++i) {
    envs.push_back(std::make_unique<runtime::SimEnv>(sim, i));
    nodes.push_back(std::make_unique<core::DlNode>(wan_node(i), *envs[i]));
    envs.back()->attach(*nodes.back());
  }
  nodes[0]->set_delivery_callback(
      [&res](std::uint64_t, core::BlockKey, const core::BlockView& b, double) {
        res.payload_bytes += b.payload_bytes();
      });
  sim.run_until(duration);
  res.epochs = nodes[0]->stats().delivered_epochs;
  res.seconds = duration;
  return res;
}

// `mute_node` < 0 runs an all-honest cluster; otherwise that node's wire
// drops every Data frame (mute-but-connected adversary, within f=1).
LegResult run_real_leg(const net::RateSchedule& sched, double duration,
                       int mute_node) {
  net::ClusterConfig cfg = app::loopback_config(kN);
  net::LinkShapeRule rule;  // wildcard: shared egress bucket per node,
  rule.schedule = sched;    // mirroring FluidLink's aggregate egress
  rule.delay_ms = 20;
  cfg.links.push_back(rule);

  app::LoopbackCluster cluster(cfg, [mute_node](int i) {
    app::ReplicaOptions o;
    o.node = wan_node(i);
    o.client_plane = false;
    if (i == mute_node) o.adversary.kind = adversary::RealAdversary::Kind::Mute;
    return o;
  });
  LegResult res;
  cluster[0].set_delivery_hook(
      [&res](std::uint64_t, core::BlockKey, const core::BlockView& b, double) {
        res.payload_bytes += b.payload_bytes();
      });
  cluster.start();
  cluster.loop().after(duration, [&] { cluster.loop().stop(); });
  cluster.loop().run();
  res.epochs = cluster[0].node().stats().delivered_epochs;
  res.seconds = duration;
  return res;
}

void push_rows(std::vector<runner::PerfRow>& rows, const std::string& leg,
               const LegResult& r) {
  rows.push_back({leg + "/goodput", "payload_bytes", r.payload_bytes, r.seconds});
  rows.push_back({leg + "/epochs", "epochs", r.epochs, r.seconds});
}

}  // namespace

int main() {
  bench::header("Scenario: WAN trace, sim vs real runtime",
                "one trace file drives FluidLink and the TcpEnv shaper (new; "
                "not in paper)");
  const double duration = bench::full_scale() ? 20.0 : 6.0;
  const std::string trace_dir = DL_BENCH_TRACE_DIR;
  const char* traces[] = {"wan_step", "wan_sawtooth"};

  std::vector<runner::PerfRow> rows;
  bench::row({"trace", "leg", "goodput", "epochs"}, 16);
  for (const char* name : traces) {
    std::string err;
    auto sched =
        net::load_rate_trace(trace_dir + "/" + name + ".trace", &err);
    if (!sched) {
      std::fprintf(stderr, "FAILED to load trace: %s\n", err.c_str());
      return 1;
    }
    const LegResult sim = run_sim_leg(*sched, duration);
    const LegResult real = run_real_leg(*sched, duration, -1);
    const LegResult adv = run_real_leg(*sched, duration, kN - 1);
    push_rows(rows, std::string(name) + "/sim", sim);
    push_rows(rows, std::string(name) + "/real", real);
    push_rows(rows, std::string(name) + "/real+mute", adv);
    for (const auto& [leg, r] :
         {std::pair<const char*, const LegResult&>{"sim", sim},
          {"real", real},
          {"real+mute", adv}}) {
      bench::row({name, leg,
                  bench::fmt(static_cast<double>(r.payload_bytes) /
                                 r.seconds / 1e3, 1) + "KB/s",
                  std::to_string(r.epochs)},
                 16);
    }
  }
  std::printf("\n(%.0fs per leg; expected: real within a small factor of sim\n"
              " — tolerances in docs/PERF.md — and real+mute live but "
              "slower)\n", duration);
  bench::write_perf("scen_wan_real", rows);
  return 0;
}
