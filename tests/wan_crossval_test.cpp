// Sim-vs-real cross-validation: the same piecewise bandwidth trace drives
// both the simulator's FluidLink and the real TcpEnv shaper, and the two
// backends must tell the same story.
//
// Two comparisons, with deliberately different tolerances:
//
// 1. Transport level (tight, ±15%): a saturating sender behind the shaped
//    link. Delivered bytes per trace window must track rate*window on both
//    backends — this is the property the shaper exists to reproduce, and
//    saturation makes it demand-independent.
//
// 2. Protocol level (loose, documented): a full 4-node DispersedLedger
//    cluster over the same trace. In the demand-limited window the legs
//    must agree closely (both commit the offered load). In the saturated
//    window we pin the qualitative shape — goodput collapses on both
//    backends — but only a factor-4 quantitative band. Both backends now
//    use the same link model (serialize at the trace rate, then apply the
//    propagation delay, which never holds up later frames), but they still
//    differ once queues build: FluidLink shares capacity High:Low at
//    weight_high=30 while TcpEnv serializes strict-priority, and TCP adds
//    its own framing and kernel buffering. See docs/PERF.md ("Sim-vs-real
//    cross-validation").
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/loopback_cluster.hpp"
#include "dl/node.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_env.hpp"
#include "runtime/sim_env.hpp"
#include "sim/simulator.hpp"

namespace dl {
namespace {

constexpr double kStep = 2.0;          // seconds per trace window
constexpr double kRunFor = 4.0;        // two windows
constexpr double kRateHigh = 250'000;  // bytes/sec
constexpr double kRateLow = 62'500;

// Bytes delivered at the observer, bucketed into kStep-wide windows.
struct Windows {
  std::vector<double> bytes = std::vector<double>(2, 0.0);
  void record(double t, std::size_t n) {
    if (t < 0 || t >= kRunFor) return;
    bytes[static_cast<std::size_t>(t / kStep)] += static_cast<double>(n);
  }
};

net::ClusterConfig shaped_loopback(int n) {
  net::ClusterConfig cfg = app::loopback_config(n);
  net::LinkShapeRule rule;  // wildcard: one shared egress bucket per node,
  rule.schedule = net::RateSchedule{{kRateHigh, kRateLow}, kStep};
  cfg.links.push_back(rule);  // mirroring FluidLink's aggregate egress
  return cfg;
}

// ---------------------------------------------------------------------------
// Level 1: saturated point-to-point goodput.

constexpr std::size_t kMsgBody = 4000;
// Enough queued bytes to keep the link saturated for the whole run.
constexpr int kMsgCount = 400;

struct SimSink final : sim::Host {
  sim::Simulator* sim = nullptr;
  Windows win;
  void on_message(sim::Message&& m) override {
    win.record(sim->now(), m.payload ? m.payload->size() : 0);
  }
};

struct SimSource final : sim::Host {
  sim::Simulator* sim = nullptr;
  void start() override {
    auto payload = std::make_shared<const Bytes>(kMsgBody, std::uint8_t{0xA5});
    for (int k = 0; k < kMsgCount; ++k) {
      sim::Message m;
      m.from = 0;
      m.to = 1;
      m.cls = sim::Priority::High;
      m.payload = payload;
      sim->network().send(std::move(m));
    }
  }
  void on_message(sim::Message&&) override {}
};

Windows run_sim_goodput() {
  sim::NetworkConfig net = sim::NetworkConfig::uniform(2, 0.0, 1e9);
  net.egress[0] = sim::Trace({kRateHigh, kRateLow}, kStep);
  sim::Simulator sim(net);
  SimSource src;
  SimSink dst;
  src.sim = &sim;
  dst.sim = &sim;
  sim.attach(0, &src);
  sim.attach(1, &dst);
  sim.run_until(kRunFor + 0.001);
  return dst.win;
}

struct CountingSink final : runtime::Receiver {
  net::EventLoop* loop = nullptr;
  double t0 = 0;
  Windows win;
  void on_receive(int, ByteView bytes) override {
    win.record(loop->now() - t0, bytes.size());
  }
};

struct SilentReceiver final : runtime::Receiver {
  void on_receive(int, ByteView) override {}
};

Windows run_real_goodput() {
  net::EventLoop loop;
  const net::ClusterConfig cfg = shaped_loopback(2);
  net::TcpEnv sender(loop, cfg, 0);
  net::TcpEnv receiver(loop, cfg, 1);
  sender.set_peer_port(1, receiver.listen_port());
  receiver.set_peer_port(0, sender.listen_port());
  SilentReceiver src;
  CountingSink dst;
  dst.loop = &loop;
  dst.t0 = loop.now();
  sender.start(src);
  receiver.start(dst);
  Envelope e;
  e.kind = MsgKind::VidChunk;
  e.body.assign(kMsgBody, std::uint8_t{0xA5});
  for (int k = 0; k < kMsgCount; ++k) sender.send(1, e, {});
  loop.after(kRunFor + 0.05, [&] { loop.stop(); });
  loop.run();
  return dst.win;
}

TEST(WanCrossVal, SaturatedGoodputTracksTraceOnBothBackends) {
  const Windows sim = run_sim_goodput();
  const Windows real = run_real_goodput();
  const double expect[2] = {kRateHigh * kStep, kRateLow * kStep};
  for (int w = 0; w < 2; ++w) {
    const auto i = static_cast<std::size_t>(w);
    // Each backend within 15% of rate*window (payload vs wire framing,
    // bucket burst, and connection setup all eat into this budget)...
    EXPECT_NEAR(sim.bytes[i], expect[w], 0.15 * expect[w]) << "sim window " << w;
    EXPECT_NEAR(real.bytes[i], expect[w], 0.15 * expect[w])
        << "real window " << w;
    // ...and within 15% of each other.
    EXPECT_NEAR(real.bytes[i], sim.bytes[i], 0.15 * sim.bytes[i])
        << "window " << w;
  }
}

// ---------------------------------------------------------------------------
// Level 2: full-protocol trajectories.

constexpr int kN = 4;

core::NodeConfig crossval_node(int i) {
  core::NodeConfig c = core::NodeConfig::dispersed_ledger(kN, 1, i);
  // Offered load sits between the two trace rates: window 0 is
  // demand-limited (≈50 kB/s/node of egress demand vs 250 kB/s capacity
  // once coding overhead is counted), window 1 is saturated.
  c.propose_delay = 0.15;
  c.backlog_tx_bytes = 512;  // self-fill: every block packs to max size
  c.max_block_bytes = 4096;
  return c;
}

Windows run_sim_cluster() {
  sim::NetworkConfig net = sim::NetworkConfig::uniform(kN, 0.02, kRateHigh);
  for (int i = 0; i < kN; ++i) {
    net.egress[static_cast<std::size_t>(i)] =
        sim::Trace({kRateHigh, kRateLow}, kStep);
    // The real shaper paces egress only; make sim ingress a non-factor too.
    net.ingress[static_cast<std::size_t>(i)] = sim::Trace::constant(1e9);
  }
  sim::Simulator sim(net);
  std::vector<std::unique_ptr<runtime::SimEnv>> envs;
  std::vector<std::unique_ptr<core::DlNode>> nodes;
  Windows win;
  for (int i = 0; i < kN; ++i) {
    envs.push_back(std::make_unique<runtime::SimEnv>(sim, i));
    nodes.push_back(std::make_unique<core::DlNode>(crossval_node(i), *envs[i]));
    envs.back()->attach(*nodes.back());
  }
  runtime::Env* env0 = envs[0].get();
  nodes[0]->set_delivery_callback(
      [&win, env0](std::uint64_t, core::BlockKey, const core::BlockView& b,
                   double) { win.record(env0->now(), b.payload_bytes()); });
  sim.run_until(kRunFor + 0.001);
  return win;
}

Windows run_real_cluster() {
  net::ClusterConfig cfg = shaped_loopback(kN);
  cfg.links[0].delay_ms = 20;  // match the sim's one-way propagation delay
  app::LoopbackCluster cluster(cfg, [](int i) {
    app::ReplicaOptions o;
    o.node = crossval_node(i);
    o.client_plane = false;
    return o;
  });
  net::EventLoop& loop = cluster.loop();
  Windows win;
  const double t0 = loop.now();
  cluster[0].set_delivery_hook(
      [&win, &loop, t0](std::uint64_t, core::BlockKey, const core::BlockView& b,
                        double) { win.record(loop.now() - t0, b.payload_bytes()); });
  cluster.start();
  loop.after(kRunFor + 0.05, [&] { loop.stop(); });
  loop.run();
  return win;
}

TEST(WanCrossVal, ClusterTrajectoriesAgreeWithinDocumentedTolerance) {
  const Windows sim = run_sim_cluster();
  const Windows real = run_real_cluster();

  // Both legs must commit in both windows.
  for (int w = 0; w < 2; ++w) {
    const auto i = static_cast<std::size_t>(w);
    ASSERT_GT(sim.bytes[i], 0.0) << "sim window " << w;
    ASSERT_GT(real.bytes[i], 0.0) << "real window " << w;
  }
  // Demand-limited window: both backends carry the offered load, so the
  // legs agree tightly.
  EXPECT_GE(real.bytes[0], 0.7 * sim.bytes[0]);
  EXPECT_LE(real.bytes[0], 1.43 * sim.bytes[0]);
  // Saturated window: the 4x rate step must be visible on both backends.
  // The fluid model degrades harder (see file header), so the qualitative
  // assertion differs per leg and the quantitative band is wide.
  EXPECT_GT(sim.bytes[0], 1.5 * sim.bytes[1]) << "sim leg missed the step";
  EXPECT_GT(real.bytes[0], real.bytes[1]) << "real leg missed the step";
  const double ratio = real.bytes[1] / sim.bytes[1];
  EXPECT_GE(ratio, 0.5) << "real=" << real.bytes[1] << " sim=" << sim.bytes[1];
  EXPECT_LE(ratio, 4.0) << "real=" << real.bytes[1] << " sim=" << sim.bytes[1];
}

}  // namespace
}  // namespace dl
