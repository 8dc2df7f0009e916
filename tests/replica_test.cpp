// app::Replica as a unit: its teardown order and its restart replay.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
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

// dlnoded's ledger line prints the digest the node computed for its
// fingerprint chain. For a well-formed block that is the hash of the
// block's own encoding, so the line is what hashing the block again gave.
TEST(Replica, DeliveredDigestIsTheHashOfTheEncodedBlock) {
  app::LoopbackCluster cluster(4, app::ReplicaOptions{});
  std::vector<std::uint64_t> txs(4, 0);
  for (int i = 0; i < cluster.size(); ++i) {
    cluster[i].set_delivery_hook([&, i](std::uint64_t, core::BlockKey,
                                        const core::Block& block, double) {
      EXPECT_EQ(cluster[i].node().delivered_block_digest(),
                sha256(block.encode()));
      txs[static_cast<std::size_t>(i)] += block.txs.size();
    });
  }
  cluster.start();
  cluster.loop().after(0.0, [&] {
    for (int i = 0; i < cluster.size(); ++i) {
      for (std::uint64_t k = 0; k < 8; ++k) {
        cluster[i].node().submit(
            random_bytes(100, (static_cast<std::uint64_t>(i) << 32) | k));
      }
    }
  });
  ASSERT_TRUE(cluster.run_until([&] {
    for (std::uint64_t t : txs) {
      if (t < 32) return false;
    }
    return true;
  }));
}

std::string read_comm(const std::filesystem::path& file) {
  std::ifstream in(file);
  std::string name;
  std::getline(in, name);
  return name;
}

// Every spawned thread is named by role, so per-thread CPU in
// /proc/<pid>/task/*/stat says which role is busy; the home loop keeps the
// process name, so pgrep and pkill by name still work.
TEST(Replica, ThreadsAreNamedByRole) {
  app::ReplicaOptions opt;
  opt.loops = 2;
  opt.workers = 2;
  opt.net_loops = 2;
  app::LoopbackCluster cluster(4, opt);
  cluster.start();

  // Every other thread (the test's own, a sanitizer runtime's) keeps the
  // process name.
  const std::string process = read_comm("/proc/self/comm");
  std::map<std::string, int> roles;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const std::string name = read_comm(task.path() / "comm");
    if (name != process) ++roles[name];
  }
  const std::map<std::string, int> want = {
      {"net0", 4},    {"net1", 4},   {"worker0", 4},
      {"worker1", 4}, {"shard0", 4}, {"shard1", 4},
  };
  EXPECT_EQ(roles, want);

  ASSERT_TRUE(cluster.run_until([&] {
    for (int i = 0; i < cluster.size(); ++i) {
      if (cluster[i].node().stats().delivered_epochs == 0) return false;
    }
    return true;
  }));
}

}  // namespace
}  // namespace dl
