// The client ingress plane, end to end and fully in-process: a 4-replica
// app::LoopbackCluster over real loopback TCP, each replica fronted by a
// one-shard client::IngressShards (a Gateway + Mempool on the shared loop,
// as dlnoded runs with --loops 1), driven ONLY by dl::client::DlClient
// submissions — no synthetic workload.
// Every submitted transaction must be acked, committed exactly once, and
// observed with monotone commit epochs; replica ledgers must agree.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <set>
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
          [ledger](std::uint64_t at, core::BlockKey key, const core::Block&,
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

  IngressShards& ingress(int i) { return *(*this)[i].ingress(); }
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
  DlClient c0(cluster.loop(), "127.0.0.1", cluster.ingress(0).listen_port());
  DlClient c1(cluster.loop(), "127.0.0.1", cluster.ingress(2).listen_port());
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
  const Gateway::Stats g0 = cluster.ingress(0).aggregate_stats();
  EXPECT_EQ(g0.submits, kTxs / 2);
  EXPECT_EQ(g0.commits_notified, kTxs / 2);
  EXPECT_EQ(cluster.ingress(0).aggregate_mempool_stats().committed,
            kTxs / 2);
}

TEST(ClientE2E, DuplicateSubmissionAckedDuplicateAndCommittedOnce) {
  Cluster cluster;
  DlClient cli(cluster.loop(), "127.0.0.1",
               cluster.ingress(1).listen_port());
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
      cluster.ingress(1).aggregate_mempool_stats().dropped_duplicate,
      1u);
}

TEST(ClientE2E, OversizeSubmissionRejectedTerminally) {
  MempoolOptions mempool;
  mempool.max_tx_bytes = 128;
  Cluster cluster(mempool);
  DlClient cli(cluster.loop(), "127.0.0.1",
               cluster.ingress(0).listen_port());
  cli.start();

  net::TxStatus last{};
  cli.set_ack_callback([&](std::uint64_t, net::TxStatus st) { last = st; });
  cluster.loop().after(0.0, [&] { cli.submit(Bytes(256, 0xEE)); });
  ASSERT_TRUE(cluster.run_until([&] { return cli.stats().acked >= 1; }, 10.0));
  EXPECT_EQ(last, net::TxStatus::TooLarge);
  EXPECT_EQ(cli.stats().rejected, 1u);
  EXPECT_EQ(cli.stats().outstanding, 0u);
}

TEST(ClientE2E, GarbageOnClientPortIsDroppedNotFatal) {
  // A raw socket spraying garbage at the gateway must get disconnected
  // while a well-behaved client on the same gateway keeps committing.
  Cluster cluster;
  DlClient cli(cluster.loop(), "127.0.0.1",
               cluster.ingress(0).listen_port());
  cli.start();

  const int raw = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cluster.ingress(0).listen_port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  // A valid-looking header declaring a huge frame, then junk.
  const Bytes junk = random_bytes(512, 99);
  ASSERT_GT(send(raw, junk.data(), junk.size(), 0), 0);

  std::uint64_t submitted = 0;
  std::function<void()> feed = [&] {
    if (submitted < 20) {
      cli.submit(unique_payload(4, submitted++));
      cluster.loop().after(0.002, feed);
    }
  };
  cluster.loop().after(0.0, feed);
  ASSERT_TRUE(cluster.run_until([&] { return cli.stats().committed >= 20; }));
  close(raw);
  EXPECT_EQ(cli.stats().committed, 20u);
}

TEST(ClientE2E, GatewayShutdownSendsGoodbye) {
  Cluster cluster;
  DlClient cli(cluster.loop(), "127.0.0.1",
               cluster.ingress(3).listen_port());
  cli.start();

  cluster.loop().after(0.0, [&] { cli.submit(unique_payload(5, 0)); });
  ASSERT_TRUE(cluster.run_until([&] { return cli.stats().committed >= 1; }));

  // Graceful shutdown: the client must observe a Goodbye (remote_closed)
  // rather than a reconnect loop against a dead port.
  cluster.loop().post([&] { cluster.ingress(3).shutdown(); });
  ASSERT_TRUE(cluster.run_until([&] { return cli.remote_closed(); }, 10.0));
  EXPECT_FALSE(cli.connected());
}

int thread_count() {
  int n = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

TEST(ClientE2E, OneShardIngressStartsNoThreadAndCommitsOnTheHomeLoop) {
  // A dedicated thread for a lone shard costs peak throughput; the shard
  // must run on the node's own loop. Building the cluster includes every
  // replica's IngressShards::start().
  const int before = thread_count();
  Cluster cluster;
  EXPECT_EQ(thread_count(), before);

  DlClient cli(cluster.loop(), "127.0.0.1",
               cluster.ingress(2).listen_port());
  cli.start();
  int most_threads = before;
  cluster.loop().after(0.0, [&] {
    for (std::uint64_t i = 0; i < 5; ++i) cli.submit(unique_payload(6, i));
  });
  ASSERT_TRUE(cluster.run_until([&] {
    most_threads = std::max(most_threads, thread_count());
    return cli.stats().committed >= 5;
  }));
  EXPECT_EQ(most_threads, before);
  EXPECT_EQ(cli.stats().committed, 5u);
  EXPECT_EQ(cluster.ingress(2).aggregate_stats().commits_notified, 5u);
}

}  // namespace
}  // namespace dl::client
