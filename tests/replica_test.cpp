// app::Replica as a unit: its teardown order and its restart replay.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "app/loopback_cluster.hpp"
#include "client/dl_client.hpp"

namespace dl {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/dl_replica_test.XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

// A worker pool's destructor runs the jobs still queued on it, and a store
// drain observes the registry's dl_store_drain_us histogram, so the
// registry must outlive the pool. Otherwise a replica with a store, workers
// and metrics frees the histogram before its last drain (heap-use-after-free
// in Histogram::observe under ASan; an abort at exit without it). Without
// ASan the test still checks that the queued drain ran.
TEST(Replica, TeardownRunsQueuedStoreDrainsWhileTheRegistryLives) {
  TempDir dir;
  net::EventLoop loop;
  std::atomic<bool> drained{false};
  {
    app::ReplicaOptions opt;
    opt.workers = 1;
    opt.store_dir = dir.path;
    opt.metrics = true;
    opt.loops = 0;
    app::Replica replica(loop, app::loopback_config(4), opt);
    storage::LedgerStore* store = replica.store();
    // Keep the lone worker busy so the drain is still queued when the
    // replica is destroyed.
    replica.env().offload(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); },
        [] {});
    replica.env().offload(
        [store, &drained] {
          store->drain();
          drained = true;
        },
        [] {});
  }
  EXPECT_TRUE(drained.load());
}

app::ReplicaOptions durable(const std::string& dir) {
  app::ReplicaOptions o;
  o.node.propose_delay = 0.003;
  o.node.max_block_bytes = 8192;
  o.store_dir = dir;
  return o;
}

// A payload that committed before a restart is answered from the store on
// resubmit: acked Committed at its original epoch, never admitted again.
// The check needs no new epoch after the restart, which a whole-cluster
// restart does not reliably deliver (ROADMAP item 5).
TEST(Replica, RestartAnswersACommittedPayloadFromTheRecoveredStore) {
  constexpr int kN = 4;
  constexpr int kEntry = 1;  // the replica the client talks to
  std::vector<TempDir> dirs(kN);
  auto options = [&dirs](int i) {
    return durable(dirs[static_cast<std::size_t>(i)].path);
  };
  const Bytes payload = random_bytes(64, 0x5eed);

  std::uint64_t commit_epoch = 0;
  {
    app::LoopbackCluster cluster(app::loopback_config(kN), options);
    cluster.start();
    client::DlClient cli(cluster.loop(), "127.0.0.1",
                         cluster[kEntry].ingress()->listen_port());
    cli.set_commit_callback([&](std::uint64_t, std::uint64_t epoch,
                                std::uint32_t, double,
                                const net::StageLatencies&) {
      commit_epoch = epoch;
    });
    cli.start();
    cluster.loop().after(0.0, [&] { cli.submit(payload); });
    ASSERT_TRUE(cluster.run_until([&] { return cli.stats().committed >= 1; }));
  }

  // The same stores, a new cluster.
  app::LoopbackCluster cluster(app::loopback_config(kN), options);
  std::vector<std::uint64_t> replayed(kN, 0);
  bool payload_replayed = false;
  for (int i = 0; i < kN; ++i) {
    cluster[i].start([&, i](const storage::BlockRecord&,
                            const core::Block& block) {
      ++replayed[static_cast<std::size_t>(i)];
      for (const core::Transaction& tx : block.txs) {
        if (i == kEntry && tx.payload == payload) payload_replayed = true;
      }
    });
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(replayed[static_cast<std::size_t>(i)],
              cluster[i].store()->recovered().committed_blocks)
        << "replica " << i;
  }
  EXPECT_TRUE(payload_replayed);

  client::DlClient cli(cluster.loop(), "127.0.0.1",
                       cluster[kEntry].ingress()->listen_port());
  net::TxStatus ack{};
  std::uint64_t replay_epoch = 0;
  cli.set_ack_callback([&](std::uint64_t, net::TxStatus st) { ack = st; });
  cli.set_commit_callback([&](std::uint64_t, std::uint64_t epoch,
                              std::uint32_t, double,
                              const net::StageLatencies&) {
    replay_epoch = epoch;
  });
  cli.start();
  cluster.loop().after(0.0, [&] { cli.submit(payload); });
  ASSERT_TRUE(
      cluster.run_until([&] { return cli.stats().committed >= 1; }, 10.0));
  EXPECT_EQ(ack, net::TxStatus::Committed);
  EXPECT_EQ(replay_epoch, commit_epoch);
  EXPECT_EQ(cluster[kEntry].ingress()->aggregate_mempool_stats().admitted, 0u);
}

}  // namespace
}  // namespace dl
