// app::Replica as a unit: its restart replay, its delivered digests, and
// its one thread.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
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
                         cluster[kEntry].gateway()->listen_port());
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
                            const core::BlockView& block) {
      ++replayed[static_cast<std::size_t>(i)];
      for (const core::TxView& tx : block.txs) {
        if (i == kEntry && equal(tx.payload, payload)) payload_replayed = true;
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
                       cluster[kEntry].gateway()->listen_port());
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
  EXPECT_EQ(cluster[kEntry].gateway()->mempool().stats().admitted, 0u);
}

// dlnoded's ledger line prints the digest the node computed for its
// fingerprint chain. For a well-formed block that is the hash of the
// block's own encoding, so the line is what hashing the block again gave.
TEST(Replica, DeliveredDigestIsTheHashOfTheEncodedBlock) {
  app::LoopbackCluster cluster(4, app::ReplicaOptions{});
  std::vector<std::uint64_t> txs(4, 0);
  for (int i = 0; i < cluster.size(); ++i) {
    cluster[i].set_delivery_hook([&, i](std::uint64_t, core::BlockKey,
                                        const core::BlockView& block, double) {
      core::Block again;
      again.v_array = block.v_array;
      for (const core::TxView& tx : block.txs) {
        again.txs.push_back(core::Transaction{
            tx.submit_time, tx.origin, Bytes(tx.payload.begin(), tx.payload.end())});
      }
      EXPECT_EQ(cluster[i].node().delivered_block_digest(),
                sha256(again.encode()));
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

// Blocks at the size limit, encoded and decoded on the home loop between
// the socket reads that recycle the reader and block buffers: every
// replica delivers every transaction in the same order. CI runs it under
// ASan.
TEST(Replica, HomeLoopCodesMaxSizeBlocks) {
  app::ReplicaOptions opt;
  opt.node.propose_delay = 0.020;
  opt.node.max_block_bytes = 262'144;
  opt.node.propose_size = opt.node.max_block_bytes;
  app::LoopbackCluster cluster(4, opt);
  constexpr std::uint64_t kTxs = 600;  // per replica, ~2.3 full blocks
  struct Seen {
    std::uint64_t txs = 0;
    std::uint64_t largest = 0;  // payload bytes of the largest block
    std::vector<Hash> digests;  // in delivery order
  };
  std::vector<Seen> seen(4);
  for (int i = 0; i < cluster.size(); ++i) {
    cluster[i].set_delivery_hook([&, i](std::uint64_t, core::BlockKey,
                                        const core::BlockView& block, double) {
      Seen& s = seen[static_cast<std::size_t>(i)];
      s.txs += block.txs.size();
      s.largest = std::max(s.largest, block.payload_bytes());
      s.digests.push_back(cluster[i].node().delivered_block_digest());
    });
  }
  cluster.start();
  cluster.loop().after(0.0, [&] {
    for (int i = 0; i < cluster.size(); ++i) {
      for (std::uint64_t k = 0; k < kTxs; ++k) {
        cluster[i].node().submit(
            random_bytes(1000, (static_cast<std::uint64_t>(i) << 32) | k));
      }
    }
  });
  ASSERT_TRUE(cluster.run_until(
      [&] {
        for (const Seen& s : seen) {
          if (s.txs < 4 * kTxs) return false;
        }
        return true;
      },
      120.0));
  const std::size_t common = std::min_element(seen.begin(), seen.end(),
                                              [](const Seen& a, const Seen& b) {
                                                return a.digests.size() <
                                                       b.digests.size();
                                              })->digests.size();
  for (const Seen& s : seen) {
    EXPECT_EQ(s.txs, 4 * kTxs);
    EXPECT_GT(s.largest, opt.node.max_block_bytes * 9 / 10);
    EXPECT_TRUE(std::equal(s.digests.begin(), s.digests.begin() + static_cast<std::ptrdiff_t>(common),
                           seen[0].digests.begin()));
  }
}

std::string read_comm(const std::filesystem::path& file) {
  std::ifstream in(file);
  std::string name;
  std::getline(in, name);
  return name;
}

// The process's threads other than the ones that keep its name (the test's
// own, a sanitizer runtime's), by name; and the count of all of them.
std::map<std::string, int> renamed_threads(int* total) {
  const std::string process = read_comm("/proc/self/comm");
  std::map<std::string, int> names;
  *total = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++*total;
    const std::string name = read_comm(task.path() / "comm");
    if (name != process) ++names[name];
  }
  return names;
}

// A replica is one thread. With every part built (store, metrics, admin
// server, flight recorder, client gateway) and started, the process has no
// thread it did not have before, and a client transaction commits.
TEST(Replica, RunsOnOneThread) {
  std::vector<TempDir> dirs(4);
  int before = 0;
  EXPECT_TRUE(renamed_threads(&before).empty());
  app::LoopbackCluster cluster(app::loopback_config(4), [&dirs](int i) {
    app::ReplicaOptions o = durable(dirs[static_cast<std::size_t>(i)].path);
    o.metrics = true;
    o.admin_port = 0;
    return o;
  });
  cluster.start();
  int threads = 0;
  EXPECT_TRUE(renamed_threads(&threads).empty());
  EXPECT_EQ(threads, before);

  client::DlClient cli(cluster.loop(), "127.0.0.1",
                       cluster[2].gateway()->listen_port());
  cli.start();
  int most = before;
  cluster.loop().after(0.0, [&] { cli.submit(random_bytes(64, 0x0e)); });
  ASSERT_TRUE(cluster.run_until([&] {
    EXPECT_TRUE(renamed_threads(&threads).empty());
    most = std::max(most, threads);
    return cli.stats().committed >= 1;
  }));
  EXPECT_EQ(most, before);
  EXPECT_EQ(cluster[2].gateway()->stats().commits_notified, 1u);
}

}  // namespace
}  // namespace dl
