// The client ingress plane, end to end and fully in-process: a 4-replica
// app::LoopbackCluster over real loopback TCP, each replica fronted by its
// client::Gateway (and Mempool) on the shared loop, as dlnoded runs it,
// driven ONLY by dl::client::DlClient submissions — no synthetic workload.
// Every submitted transaction must be acked, committed exactly once, and
// observed with monotone commit epochs; replica ledgers must agree.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/loopback_cluster.hpp"
#include "client/dl_client.hpp"

namespace dl::client {
namespace {

// Four replicas, each recording its ledger; started.
struct Cluster : app::LoopbackCluster {
  using Ledger = std::vector<std::pair<std::uint64_t, core::BlockKey>>;
  std::vector<Ledger> ledgers = std::vector<Ledger>(4);

  explicit Cluster(MempoolOptions mempool = {})
      : app::LoopbackCluster(4, options(mempool)) {
    for (int i = 0; i < size(); ++i) {
      auto* ledger = &ledgers[static_cast<std::size_t>(i)];
      (*this)[i].set_delivery_hook(
          [ledger](std::uint64_t at, core::BlockKey key, const core::BlockView&,
                   double) { ledger->emplace_back(at, key); });
    }
    start();
  }

  static app::ReplicaOptions options(const MempoolOptions& mempool) {
    app::ReplicaOptions o;
    o.node.propose_delay = 0.003;
    o.node.max_block_bytes = 8192;
    o.mempool = mempool;
    return o;
  }

  Gateway& gateway(int i) { return *(*this)[i].gateway(); }
};

Bytes unique_payload(std::uint64_t stream, std::uint64_t i, std::size_t n = 64) {
  Bytes p = random_bytes(n, (stream << 32) ^ i);
  for (int b = 0; b < 8; ++b) {
    p[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(i >> (8 * b));
    p[static_cast<std::size_t>(8 + b)] =
        static_cast<std::uint8_t>(stream >> (8 * b));
  }
  return p;
}

TEST(ClientE2E, TwoHundredTxsCommitExactlyOnceWithMonotoneEpochs) {
  constexpr int kN = 4;
  constexpr std::uint64_t kTxs = 200;
  Cluster cluster;

  // Two clients on different replicas (commit notifications must route to
  // the right gateway and the right connection).
  DlClient c0(cluster.loop(), "127.0.0.1", cluster.gateway(0).listen_port());
  DlClient c1(cluster.loop(), "127.0.0.1", cluster.gateway(2).listen_port());
  c0.start();
  c1.start();

  struct Observed {
    std::set<std::uint64_t> committed_seqs;
    std::vector<std::uint64_t> epochs;
    std::uint64_t dup_commits = 0;
    std::uint64_t accepted_acks = 0;
    std::uint64_t stage_samples = 0;  // commits with a dispersal+BA stage
  };
  Observed o0, o1;
  auto observe = [](Observed& o) {
    return [&o](std::uint64_t seq, std::uint64_t epoch, std::uint32_t,
                double node_latency, const net::StageLatencies& stages) {
      if (!o.committed_seqs.insert(seq).second) ++o.dup_commits;
      o.epochs.push_back(epoch);
      EXPECT_GE(node_latency, 0.0);
      // The block was the node's own proposal, so the full stage breakdown
      // must be attributed: dispersal and BA cannot take literally zero
      // time over real sockets.
      o.stage_samples += stages.disperse_us > 0 && stages.ba_us > 0 ? 1 : 0;
    };
  };
  c0.set_commit_callback(observe(o0));
  c1.set_commit_callback(observe(o1));
  c0.set_ack_callback([&](std::uint64_t, net::TxStatus st) {
    if (st == net::TxStatus::Accepted) ++o0.accepted_acks;
  });
  c1.set_ack_callback([&](std::uint64_t, net::TxStatus st) {
    if (st == net::TxStatus::Accepted) ++o1.accepted_acks;
  });

  // Submit 100 txs per client, pipelined in small bursts.
  std::uint64_t submitted0 = 0, submitted1 = 0;
  std::function<void()> feed = [&] {
    for (int b = 0; b < 10 && submitted0 < kTxs / 2; ++b) {
      c0.submit(unique_payload(1, submitted0++));
    }
    for (int b = 0; b < 10 && submitted1 < kTxs / 2; ++b) {
      c1.submit(unique_payload(2, submitted1++));
    }
    if (submitted0 < kTxs / 2 || submitted1 < kTxs / 2) {
      cluster.loop().after(0.002, feed);
    }
  };
  cluster.loop().after(0.0, feed);

  ASSERT_TRUE(cluster.run_until([&] {
    return c0.stats().committed >= kTxs / 2 && c1.stats().committed >= kTxs / 2;
  })) << "committed " << c0.stats().committed << " + " << c1.stats().committed;

  // Exactly once, every one.
  EXPECT_EQ(o0.committed_seqs.size(), kTxs / 2);
  EXPECT_EQ(o1.committed_seqs.size(), kTxs / 2);
  EXPECT_EQ(o0.dup_commits, 0u);
  EXPECT_EQ(o1.dup_commits, 0u);
  EXPECT_EQ(o0.accepted_acks, kTxs / 2);
  EXPECT_EQ(o1.accepted_acks, kTxs / 2);
  EXPECT_EQ(c0.stats().outstanding, 0u);
  EXPECT_EQ(c1.stats().outstanding, 0u);
  EXPECT_EQ(c0.stats().rejected, 0u);
  EXPECT_EQ(c1.stats().rejected, 0u);
  EXPECT_GT(o0.stage_samples, 0u);
  EXPECT_GT(o1.stage_samples, 0u);

  // Each client observes monotone (nondecreasing) commit epochs: its node
  // notifies in delivery order.
  for (const Observed* o : {&o0, &o1}) {
    for (std::size_t i = 1; i < o->epochs.size(); ++i) {
      ASSERT_LE(o->epochs[i - 1], o->epochs[i]) << "at commit " << i;
    }
  }

  // Replica ledgers agree on the common prefix.
  std::size_t min_len = cluster.ledgers[0].size();
  for (const auto& ledger : cluster.ledgers) {
    min_len = std::min(min_len, ledger.size());
  }
  ASSERT_GT(min_len, 0u);
  for (int i = 1; i < kN; ++i) {
    for (std::size_t k = 0; k < min_len; ++k) {
      const auto& a = cluster.ledgers[0][k];
      const auto& b = cluster.ledgers[static_cast<std::size_t>(i)][k];
      ASSERT_EQ(a.first, b.first) << "replica " << i << " row " << k;
      ASSERT_TRUE(a.second == b.second) << "replica " << i << " row " << k;
    }
  }

  // Gateways accounted one admission and one notification per transaction.
  const Gateway::Stats& g0 = cluster.gateway(0).stats();
  EXPECT_EQ(g0.submits, kTxs / 2);
  EXPECT_EQ(g0.commits_notified, kTxs / 2);
  EXPECT_EQ(cluster.gateway(0).mempool().stats().committed,
            kTxs / 2);
}

TEST(ClientE2E, DuplicateSubmissionAckedDuplicateAndCommittedOnce) {
  Cluster cluster;
  DlClient cli(cluster.loop(), "127.0.0.1",
               cluster.gateway(1).listen_port());
  cli.start();

  std::vector<net::TxStatus> acks;
  cli.set_ack_callback(
      [&](std::uint64_t, net::TxStatus st) { acks.push_back(st); });

  const Bytes payload = unique_payload(3, 0);
  cluster.loop().after(0.0, [&] {
    cli.submit(payload);
    cli.submit(payload);  // same bytes: must dedup, not double-commit
  });

  ASSERT_TRUE(cluster.run_until([&] { return cli.stats().committed >= 1; }));
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0], net::TxStatus::Accepted);
  EXPECT_EQ(acks[1], net::TxStatus::Duplicate);
  EXPECT_EQ(cli.stats().committed, 1u);
  EXPECT_EQ(
      cluster.gateway(1).mempool().stats().dropped_duplicate,
      1u);
}

TEST(ClientE2E, OversizeSubmissionRejectedTerminally) {
  MempoolOptions mempool;
  mempool.max_tx_bytes = 128;
  Cluster cluster(mempool);
  DlClient cli(cluster.loop(), "127.0.0.1",
               cluster.gateway(0).listen_port());
  cli.start();

  net::TxStatus last{};
  cli.set_ack_callback([&](std::uint64_t, net::TxStatus st) { last = st; });
  cluster.loop().after(0.0, [&] { cli.submit(Bytes(256, 0xEE)); });
  ASSERT_TRUE(cluster.run_until([&] { return cli.stats().acked >= 1; }, 10.0));
  EXPECT_EQ(last, net::TxStatus::TooLarge);
  EXPECT_EQ(cli.stats().rejected, 1u);
  EXPECT_EQ(cli.stats().outstanding, 0u);
}

// A raw TCP connection to `port` on loopback.
int connect_raw(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// True once the peer has closed `fd` (EOF or reset); never blocks.
bool peer_closed(int fd) {
  std::uint8_t buf[256];
  while (true) {
    const ssize_t n = recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) continue;  // drain anything the gateway sent first
    return n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
  }
}

TEST(ClientE2E, GarbageOnClientPortIsDroppedNotFatal) {
  // Two raw sockets spray garbage at the gateway: one before any
  // ClientHello, one after it. Both must get disconnected, only the second
  // counted as a bad client, while a well-behaved client on the same
  // gateway keeps committing.
  Cluster cluster;
  const std::uint16_t port = cluster.gateway(0).listen_port();
  DlClient cli(cluster.loop(), "127.0.0.1", port);
  cli.start();

  // Before the handshake: junk where the ClientHello should be.
  const int pre_auth = connect_raw(port);
  ASSERT_GE(pre_auth, 0);
  const Bytes junk = random_bytes(512, 99);
  ASSERT_GT(send(pre_auth, junk.data(), junk.size(), 0), 0);

  // After the handshake: a header declaring a frame above the gateway's
  // limit, then junk; the reader is poisoned before it buffers the body.
  const int authed = connect_raw(port);
  ASSERT_GE(authed, 0);
  Bytes bad = net::encode_client_hello(0xbad);
  const Bytes huge_header = {0xf0, 0xff, 0xff, 0x0f};
  bad.insert(bad.end(), huge_header.begin(), huge_header.end());
  bad.insert(bad.end(), junk.begin(), junk.end());
  ASSERT_EQ(send(authed, bad.data(), bad.size(), 0),
            static_cast<ssize_t>(bad.size()));

  std::uint64_t submitted = 0;
  std::function<void()> feed = [&] {
    if (submitted < 20) {
      cli.submit(unique_payload(4, submitted++));
      cluster.loop().after(0.002, feed);
    }
  };
  cluster.loop().after(0.0, feed);
  ASSERT_TRUE(cluster.run_until([&] {
    return cli.stats().committed >= 20 && peer_closed(pre_auth) &&
           peer_closed(authed);
  }));
  close(pre_auth);
  close(authed);
  EXPECT_EQ(cli.stats().committed, 20u);
  EXPECT_EQ(cluster.gateway(0).stats().disconnects_bad, 1u);
  EXPECT_EQ(cluster.gateway(0).stats().accepted, 2u);  // cli and `authed`
}

TEST(ClientE2E, GatewayShutdownSendsGoodbye) {
  Cluster cluster;
  DlClient cli(cluster.loop(), "127.0.0.1",
               cluster.gateway(3).listen_port());
  cli.start();

  cluster.loop().after(0.0, [&] { cli.submit(unique_payload(5, 0)); });
  ASSERT_TRUE(cluster.run_until([&] { return cli.stats().committed >= 1; }));

  // Graceful shutdown: the client must observe a Goodbye (remote_closed)
  // rather than a reconnect loop against a dead port.
  cluster.loop().post([&] { cluster.gateway(3).shutdown(); });
  ASSERT_TRUE(cluster.run_until([&] { return cli.remote_closed(); }, 10.0));
  EXPECT_FALSE(cli.connected());
}

// A client sends its payload to replica 0, where it waits in the mempool
// behind a full node queue, while the same payload reaches replica 1's
// block first (a client that sends to several replicas). Replica 0 must
// drop the pending copy when that block commits, so it never packs the
// payload into a block of its own, and notify its client exactly once.
TEST(ClientE2E, PayloadPendingHereThatCommitsElsewhereIsNotifiedOnce) {
  app::LoopbackCluster cluster(app::loopback_config(4), [](int id) {
    app::ReplicaOptions o = Cluster::options({});
    // Replica 0 packs one filler per block, so its node queue stays above
    // the gateway's watermark (2 blocks) for dozens of epochs.
    if (id == 0) o.node.max_block_bytes = 1024;
    return o;
  });
  const Bytes payload = unique_payload(7, 0);
  const Bytes filler_tag = bytes_of("filler");
  int payload_commits = 0;
  int fillers_delivered = 0;
  std::uint64_t epochs_after_fillers = 0;
  constexpr int kFillers = 40;
  cluster[0].set_delivery_hook([&](std::uint64_t, core::BlockKey,
                                   const core::BlockView& block, double) {
    for (const core::TxView& tx : block.txs) {
      if (equal(tx.payload, payload)) ++payload_commits;
      if (tx.payload.size() > filler_tag.size() &&
          equal(tx.payload.first(filler_tag.size()), filler_tag)) {
        ++fillers_delivered;
      }
    }
    if (fillers_delivered == kFillers) ++epochs_after_fillers;
  });
  cluster.start();
  DlClient cli(cluster.loop(), "127.0.0.1",
               cluster[0].gateway()->listen_port());
  cli.start();
  cli.set_ack_callback([&](std::uint64_t, net::TxStatus st) {
    ASSERT_EQ(st, net::TxStatus::Accepted);
    // Admitted at replica 0 and pending there: now replica 1 gets it too.
    EXPECT_EQ(cluster[0].gateway()->mempool().stats().admitted, 1u);
    cluster[1].node().submit(payload);
  });
  cluster.loop().after(0.0, [&] {
    for (int i = 0; i < kFillers; ++i) {
      Bytes filler = random_bytes(900, static_cast<std::uint64_t>(i));
      std::copy(filler_tag.begin(), filler_tag.end(), filler.begin());
      cluster[0].node().submit(std::move(filler));
    }
    cli.submit(payload);
  });
  // Past the last filler, replica 0's gateway drains its mempool again; a
  // stale slot would put the payload into a block a second time.
  ASSERT_TRUE(cluster.run_until([&] { return epochs_after_fillers >= 20; }, 60.0));
  EXPECT_EQ(payload_commits, 1);
  EXPECT_EQ(cli.stats().committed, 1u);
  EXPECT_EQ(cluster[0].gateway()->stats().commits_notified, 1u);
  EXPECT_EQ(cluster[0].gateway()->mempool().stats().committed, 1u);
}

// A client port is exclusive: a second gateway cannot bind it, so a
// second replica process on the same port fails at startup instead of
// silently taking half of the clients.
TEST(ClientE2E, SecondGatewayOnABoundClientPortIsRefused) {
  net::EventLoop loop;
  app::Replica replica(loop, app::loopback_config(4), app::ReplicaOptions{});
  const std::uint16_t port = replica.gateway()->listen_port();
  ASSERT_NE(port, 0);
  Gateway::Sink sink;
  sink.submit = [](std::vector<Bytes>) {};
  sink.queue_bytes = [] { return std::size_t{0}; };
  EXPECT_THROW(Gateway(loop, sink, "127.0.0.1", port, MempoolOptions{}),
               std::runtime_error);
}

// One gateway serving several clients through a real 4-replica cluster
// (the other replicas take no clients), with connection churn: one client
// disconnects and a fresh session joins mid-run. Every submitted
// transaction must be observed committed exactly once by its submitter,
// and the gateway's counters must account for all of it.
TEST(ClientE2E, GatewayCommitsAcrossConnectionChurn) {
  app::LoopbackCluster cluster(app::loopback_config(4), [](int i) {
    app::ReplicaOptions o = Cluster::options({});
    o.client_plane = i == 0;
    return o;
  });
  net::EventLoop& loop = cluster.loop();
  Gateway& gateway = *cluster[0].gateway();
  ASSERT_NE(gateway.listen_port(), 0);
  cluster.start();

  constexpr int kClients = 3;
  constexpr std::uint64_t kPerClient = 20;
  std::vector<std::unique_ptr<DlClient>> clients;
  std::vector<std::set<std::uint64_t>> committed(kClients + 1);
  std::uint64_t dup_commits = 0;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(
        std::make_unique<DlClient>(loop, "127.0.0.1", gateway.listen_port()));
    clients.back()->set_commit_callback(
        [&, c](std::uint64_t seq, std::uint64_t, std::uint32_t, double,
               const net::StageLatencies&) {
          if (!committed[static_cast<std::size_t>(c)].insert(seq).second) {
            ++dup_commits;
          }
        });
    clients.back()->start();
  }

  std::vector<std::uint64_t> submitted(kClients, 0);
  std::function<void()> feed = [&] {
    for (int c = 0; c < kClients; ++c) {
      if (submitted[static_cast<std::size_t>(c)] < kPerClient) {
        clients[static_cast<std::size_t>(c)]->submit(
            unique_payload(static_cast<std::uint64_t>(c) + 1,
                           submitted[static_cast<std::size_t>(c)]++));
      }
    }
    if (submitted[0] < kPerClient) loop.after(0.002, feed);
  };
  loop.after(0.0, feed);

  ASSERT_TRUE(cluster.run_until([&] {
    for (int c = 0; c < kClients; ++c) {
      if (committed[static_cast<std::size_t>(c)].size() < kPerClient) {
        return false;
      }
    }
    return true;
  })) << "committed " << committed[0].size() << "/" << committed[1].size()
      << "/" << committed[2].size();

  // Churn: drop client 0, bring up a NEW session that must still commit.
  clients[0]->close();
  clients.push_back(
      std::make_unique<DlClient>(loop, "127.0.0.1", gateway.listen_port()));
  clients.back()->set_commit_callback(
      [&](std::uint64_t seq, std::uint64_t, std::uint32_t, double,
          const net::StageLatencies&) {
        committed[kClients].insert(seq);
      });
  clients.back()->start();
  loop.after(0.0, [&] {
    for (std::uint64_t i = 0; i < 5; ++i) {
      clients.back()->submit(unique_payload(99, i));
    }
  });
  ASSERT_TRUE(cluster.run_until([&] { return committed[kClients].size() >= 5; }));

  EXPECT_EQ(dup_commits, 0u);
  for (auto& c : clients) c->close();
  gateway.shutdown();

  // The gateway saw every submit and notified every commit exactly once.
  constexpr std::uint64_t kTotal = kClients * kPerClient + 5;
  EXPECT_EQ(gateway.stats().submits, kTotal);
  EXPECT_EQ(gateway.stats().commits_notified, kTotal);
  EXPECT_EQ(gateway.mempool().stats().admitted, kTotal);
  EXPECT_EQ(gateway.mempool().stats().committed, kTotal);
}

}  // namespace
}  // namespace dl::client
