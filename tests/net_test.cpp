// The TCP runtime backend, exercised fully in-process: several TcpEnvs on
// loopback sockets sharing one EventLoop (the loop does not care whose fds
// it dispatches), so the tests stay single-threaded and deterministic to
// schedule while every byte still crosses a real kernel socket. Full
// replicas run as an app::LoopbackCluster.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "app/loopback_cluster.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_env.hpp"

namespace dl::net {
namespace {

// Builds envs on ephemeral ports and cross-wires the real ports.
std::vector<std::unique_ptr<TcpEnv>> make_envs(EventLoop& loop,
                                               const ClusterConfig& cfg,
                                               TcpEnv::Options opt = {}) {
  std::vector<std::unique_ptr<TcpEnv>> envs;
  for (int i = 0; i < cfg.n; ++i) {
    envs.push_back(std::make_unique<TcpEnv>(loop, cfg, i, opt));
  }
  for (auto& env : envs) {
    for (int j = 0; j < cfg.n; ++j) {
      env->set_peer_port(j, envs[static_cast<std::size_t>(j)]->listen_port());
    }
  }
  return envs;
}

TEST(EventLoop, TimerOrderingCancelAndPost) {
  EventLoop loop;
  std::vector<int> fired;
  loop.after(0.02, [&] { fired.push_back(2); });
  loop.after(0.01, [&] { fired.push_back(1); });
  const auto id = loop.after(0.015, [&] { fired.push_back(99); });
  // Same-deadline timers fire in creation order.
  loop.after(0.02, [&] { fired.push_back(3); });
  EXPECT_TRUE(loop.cancel_timer(id));
  EXPECT_FALSE(loop.cancel_timer(id));
  loop.post([&] { fired.push_back(0); });
  loop.after(0.03, [&loop] { loop.stop(); });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_GE(loop.now(), 0.03);
}

TEST(EventLoop, NestedTimersAndPosts) {
  EventLoop loop;
  int depth = 0;
  loop.post([&] {
    loop.post([&] {
      ++depth;
      loop.after(0.0, [&] {
        ++depth;
        loop.stop();
      });
    });
  });
  loop.run();
  EXPECT_EQ(depth, 2);
}

// Minimal Receiver: records envelopes, optionally echoes them back.
struct Recorder final : runtime::Receiver {
  runtime::Env* env = nullptr;
  bool echo = false;
  std::vector<std::pair<int, Envelope>> got;

  void on_receive(int from, ByteView bytes) override {
    auto e = Envelope::decode(bytes);
    ASSERT_TRUE(e.has_value());
    got.emplace_back(from, *e);
    if (echo && from != env->local_id()) {
      Envelope reply = *e;
      reply.epoch += 1000;
      env->send(from, reply, {});
    }
  }
};

Envelope test_envelope(std::uint64_t epoch, const std::string& text) {
  Envelope e;
  e.kind = MsgKind::VidReady;
  e.epoch = epoch;
  e.instance = 1;
  e.body = bytes_of(text);
  return e;
}

TEST(TcpEnv, TwoNodeRequestResponseAndLocalLoopback) {
  EventLoop loop;
  const ClusterConfig cfg = app::loopback_config(2);
  auto envs = make_envs(loop, cfg);
  Recorder r0, r1;
  r0.env = envs[0].get();
  r0.echo = true;
  r1.env = envs[1].get();
  envs[0]->start(r0);
  envs[1]->start(r1);

  // Node 1 sends to node 0 (cross-socket) and to itself (loopback).
  loop.after(0.0, [&] {
    envs[1]->send(0, test_envelope(7, "ping"), {});
    envs[1]->send(1, test_envelope(8, "self"), {});
  });
  loop.after(5.0, [&loop] { loop.stop(); });  // watchdog
  // Poll for completion: reply received + self-delivery done.
  std::function<void()> poll = [&] {
    if (r1.got.size() >= 2 && !r0.got.empty()) {
      loop.stop();
      return;
    }
    loop.after(0.01, poll);
  };
  loop.after(0.0, poll);
  loop.run();

  ASSERT_EQ(r0.got.size(), 1u);
  EXPECT_EQ(r0.got[0].first, 1);
  EXPECT_EQ(r0.got[0].second.epoch, 7u);
  EXPECT_EQ(to_string(ByteView(r0.got[0].second.body)), "ping");
  ASSERT_EQ(r1.got.size(), 2u);
  // Self-delivery arrives first (posted locally, no socket round-trip).
  EXPECT_EQ(r1.got[0].first, 1);
  EXPECT_EQ(r1.got[0].second.epoch, 8u);
  EXPECT_EQ(r1.got[1].first, 0);
  EXPECT_EQ(r1.got[1].second.epoch, 1007u);
  EXPECT_EQ(envs[0]->connected_peers(), 1);
  EXPECT_EQ(envs[1]->connected_peers(), 1);
}

TEST(TcpEnv, ReconnectAfterDrop) {
  EventLoop loop;
  const ClusterConfig cfg = app::loopback_config(2);
  TcpEnv::Options opt;
  opt.reconnect_min = 0.01;
  opt.reconnect_max = 0.05;
  auto envs = make_envs(loop, cfg, opt);
  Recorder r0, r1;
  r0.env = envs[0].get();
  r1.env = envs[1].get();
  envs[0]->start(r0);
  envs[1]->start(r1);

  // Once connected, kill the connection from the ACCEPTOR side (node 0;
  // node 1 is the dialer and must notice and redial). A frame written in
  // the window before the dialer observes the break rides the dead socket
  // and is legitimately lost, so keep sending until one arrives over the
  // re-established connection.
  bool dropped = false;
  std::function<void()> tick = [&] {
    if (!dropped) {
      if (envs[0]->connected_peers() == 1) {
        envs[0]->drop_connection_for_test(1);
        dropped = true;
      }
    } else if (!r0.got.empty()) {
      loop.stop();
      return;
    } else {
      envs[1]->send(0, test_envelope(42, "after-drop"), {});
    }
    loop.after(0.02, tick);
  };
  loop.after(0.0, tick);
  loop.after(5.0, [&loop] { loop.stop(); });  // watchdog
  loop.run();

  ASSERT_GE(r0.got.size(), 1u);
  EXPECT_EQ(r0.got[0].second.epoch, 42u);
  EXPECT_EQ(to_string(ByteView(r0.got[0].second.body)), "after-drop");
  EXPECT_GE(envs[1]->peer_stats(0).reconnects, 1u);
}

TEST(TcpEnv, BackpressureDropsWhenQueueFull) {
  // Peer 0 never starts, so node 1's frames to it queue until the byte cap
  // rejects them — counted, not fatal, and node 1 stays healthy.
  EventLoop loop;
  const ClusterConfig cfg = app::loopback_config(2);
  TcpEnv::Options opt;
  opt.max_queue_bytes = 4096;
  opt.max_frame_bytes = 1024;
  auto envs = make_envs(loop, cfg, opt);
  Recorder r1;
  r1.env = envs[1].get();
  envs[1]->start(r1);  // env 0 intentionally not started

  loop.post([&] {
    // A frame above the limit is rejected outright (every receiver would
    // have to tear the connection down), independent of queue occupancy.
    envs[1]->send(0, test_envelope(0, std::string(5000, 'y')), {});
    EXPECT_EQ(envs[1]->peer_stats(0).dropped_frames, 1u);
    EXPECT_EQ(envs[1]->peer_stats(0).queued_bytes, 0u);
    for (int i = 0; i < 100; ++i) {
      envs[1]->send(0, test_envelope(static_cast<std::uint64_t>(i), std::string(200, 'x')), {});
    }
    loop.stop();
  });
  loop.run();

  const auto st = envs[1]->peer_stats(0);
  EXPECT_FALSE(st.connected);
  EXPECT_GT(st.dropped_frames, 1u);
  EXPECT_LE(st.queued_bytes, 4096u);
  EXPECT_GT(st.queued_bytes, 0u);
}

TEST(TcpEnv, HandshakeTimeoutClosesSilentConnections) {
  // A socket that connects but never sends a Hello must be evicted — it may
  // not hold a pending-accept slot (or pre-auth memory) indefinitely.
  EventLoop loop;
  const ClusterConfig cfg = app::loopback_config(2);
  TcpEnv::Options opt;
  opt.handshake_timeout = 0.05;
  auto envs = make_envs(loop, cfg, opt);
  Recorder r0;
  r0.env = envs[0].get();
  envs[0]->start(r0);  // env 1 not started: we play the client ourselves

  const int raw = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(envs[0]->listen_port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  bool closed = false;
  std::function<void()> poll = [&] {
    char c;
    const ssize_t n = recv(raw, &c, 1, MSG_DONTWAIT);
    if (n == 0) {  // orderly shutdown from the replica
      closed = true;
      loop.stop();
      return;
    }
    loop.after(0.01, poll);
  };
  loop.after(0.01, poll);
  loop.after(3.0, [&loop] { loop.stop(); });  // watchdog
  loop.run();
  close(raw);
  EXPECT_TRUE(closed);
}

// The real thing: a 4-replica DispersedLedger cluster over loopback TCP.
// Every live replica must commit the same ledger prefix.
struct Delivery {
  std::uint64_t at_epoch;
  std::uint64_t epoch;
  int proposer;
  std::uint64_t payload;
  bool operator==(const Delivery&) const = default;
};

// Self-filling blocks and no client plane: no client needed.
app::ReplicaOptions self_filling() {
  app::ReplicaOptions o;
  o.node.propose_delay = 0.003;
  o.node.backlog_tx_bytes = 64;
  o.node.max_block_bytes = 4096;
  o.loops = 0;
  return o;
}

// Starts the cluster with every replica logging its deliveries, and runs
// it until every replica but `skip` delivered `target` epochs. Then every
// such replica's closed prefix (epochs < target) must equal replica 0's.
std::vector<std::vector<Delivery>> run_to_agreement(app::LoopbackCluster& c,
                                                    std::uint64_t target,
                                                    int skip = -1) {
  std::vector<std::vector<Delivery>> logs(static_cast<std::size_t>(c.size()));
  for (int i = 0; i < c.size(); ++i) {
    auto* log = &logs[static_cast<std::size_t>(i)];
    c[i].set_delivery_hook([log](std::uint64_t at, core::BlockKey key,
                                 const core::Block& b, double) {
      log->push_back({at, key.epoch, key.proposer, b.payload_bytes()});
    });
  }
  c.start();
  const bool closed = c.run_until([&] {
    for (int i = 0; i < c.size(); ++i) {
      if (i != skip && c[i].node().stats().delivered_epochs < target) {
        return false;
      }
    }
    return true;
  });
  EXPECT_TRUE(closed) << "cluster did not close " << target << " epochs";
  auto prefix = [&](int i) {
    std::vector<Delivery> out;
    for (const Delivery& d : logs[static_cast<std::size_t>(i)]) {
      if (d.at_epoch < target) out.push_back(d);
    }
    return out;
  };
  const auto p0 = prefix(0);
  EXPECT_GE(p0.size(), target);
  for (int i = 1; i < c.size(); ++i) {
    if (i == skip) continue;
    EXPECT_EQ(prefix(i), p0) << "replica " << i << " diverged";
  }
  return logs;
}

// `net_loops` >= 2 runs each replica's peer connections on private
// transport threads (per-peer loop affinity); the ledger outcome must be
// indistinguishable from the single-loop build.
void run_four_node_cluster(int net_loops) {
  app::ReplicaOptions opt = self_filling();
  opt.net_loops = net_loops;
  app::LoopbackCluster cluster(4, opt);
  const auto logs = run_to_agreement(cluster, 25);
  // The chained fingerprints cover the whole log, so they agree wherever
  // the block counts match.
  for (int i = 1; i < cluster.size(); ++i) {
    if (logs[static_cast<std::size_t>(i)].size() == logs[0].size()) {
      EXPECT_EQ(cluster[i].node().delivery_fingerprint(),
                cluster[0].node().delivery_fingerprint());
    }
  }
}

TEST(TcpCluster, FourNodeLedgerPrefixAgreement) { run_four_node_cluster(1); }

// Wire-level adversary e2e, mirroring the sim adversary tests on real
// sockets: node 3 is mute-but-connected (dials, Hellos, then every Data
// frame dies at its wire) and node 2 is a slow-drip sender (all egress
// paced through a crawl bucket). f=1 tolerates the mute node; the drip
// node is honest-but-slow and must still commit. All live replicas agree
// on the closed prefix.
TEST(TcpCluster, MuteAndSlowDripNodesToleratedWithIdenticalPrefixes) {
  constexpr int kMute = 3;
  constexpr int kDrip = 2;
  app::LoopbackCluster cluster(app::loopback_config(4), [](int i) {
    app::ReplicaOptions o = self_filling();
    if (i == kMute) {
      o.adversary.kind = adversary::RealAdversary::Kind::Mute;
    } else if (i == kDrip) {
      o.adversary.kind = adversary::RealAdversary::Kind::SlowDrip;
      o.adversary.drip_bytes_per_sec = 32'768;
    }
    return o;
  });
  // The mute node may trail; the cluster closes without it.
  run_to_agreement(cluster, 8, kMute);

  // "Mute-but-connected": everyone still sees node 3's live connection...
  EXPECT_TRUE(cluster[0].env().peer_stats(kMute).connected);
  // ...while node 3's wire killed every outbound Data frame,
  EXPECT_GT(cluster[kMute].env().peer_stats(0).shaped_drops, 0u);
  EXPECT_EQ(cluster[kMute].env().peer_stats(0).sent_frames, 1u);  // the Hello only
  // and the drip node really was throttled by its bucket.
  std::uint64_t drip_waits = 0;
  for (int j = 0; j < cluster.size(); ++j) {
    if (j != kDrip) drip_waits += cluster[kDrip].env().peer_stats(j).shaper_waits;
  }
  EXPECT_GT(drip_waits, 0u);
}

// Same cluster, but every replica splits its peer connections across two
// transport loops (peer id % 2). Exercises cross-loop send/broadcast
// batching, socket adoption onto owner loops, and receive-side batch
// delivery back to the home loop. In the TSan CI matrix.
TEST(TcpCluster, FourNodeLedgerPrefixAgreementTwoNetLoops) {
  run_four_node_cluster(2);
}

}  // namespace
}  // namespace dl::net
