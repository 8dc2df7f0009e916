// End-to-end integration tests of the full protocol stack on the network
// simulator: DispersedLedger, DL-Coupled, HoneyBadger, and HB-Link clusters.
//
// BFT properties checked (§2.1): Agreement + Total Order (every pair of
// correct nodes delivers prefix-consistent logs), Validity (submitted
// transactions are delivered everywhere), plus the DispersedLedger-specific
// behaviours: decoupled progress, inter-node linking, censorship resistance,
// BAD_UPLOADER consistency, and HoneyBadger's drop/re-propose behaviour.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "adversary/adversary.hpp"
#include "dl/node.hpp"
#include "hb/hb_node.hpp"
#include "runtime/sim_env.hpp"
#include "storage/ledger_store.hpp"

namespace dl::core {
namespace {

struct DeliveryRecord {
  std::uint64_t at_epoch;
  std::uint64_t block_epoch;
  int proposer;
  std::uint64_t payload;

  bool operator==(const DeliveryRecord&) const = default;
};

// A cluster harness: N nodes (some possibly crashed/Byzantine) on a uniform
// or custom network, with per-node delivery logs.
struct Cluster {
  sim::Simulator sim;
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<std::unique_ptr<runtime::SimEnv>> envs;
  std::vector<std::unique_ptr<DlNode>> owned;
  std::vector<DlNode*> nodes;  // indexed by node id; nullptr when crashed
  std::vector<std::vector<DeliveryRecord>> logs;  // fixed size: stable ptrs

  explicit Cluster(sim::NetworkConfig net)
      : sim(net), nodes(static_cast<std::size_t>(net.n), nullptr),
        logs(static_cast<std::size_t>(net.n)) {}

  DlNode* add_node(NodeConfig cfg) {
    envs.push_back(std::make_unique<runtime::SimEnv>(sim, cfg.self));
    auto node = std::make_unique<DlNode>(cfg, *envs.back());
    envs.back()->attach(*node);
    DlNode* raw = node.get();
    auto* log = &logs[static_cast<std::size_t>(cfg.self)];
    raw->set_delivery_callback([log](std::uint64_t at, BlockKey key,
                                     const Block& b, double) {
      log->push_back({at, key.epoch, key.proposer, b.payload_bytes()});
    });
    nodes[static_cast<std::size_t>(cfg.self)] = raw;
    owned.push_back(std::move(node));
    return raw;
  }

  void add_crashed(int self) {
    hosts.push_back(std::make_unique<adversary::CrashNode>());
    sim.attach(self, hosts.back().get());
  }

  // Prefix-consistency of two delivery logs.
  static void expect_prefix_consistent(const std::vector<DeliveryRecord>& a,
                                       const std::vector<DeliveryRecord>& b) {
    const std::size_t m = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(a[i], b[i]) << "logs diverge at position " << i;
    }
  }

  void expect_all_logs_consistent() {
    const std::vector<DeliveryRecord>* first = nullptr;
    for (std::size_t i = 0; i < logs.size(); ++i) {
      if (nodes[i] == nullptr) continue;
      if (first == nullptr) {
        first = &logs[i];
        continue;
      }
      expect_prefix_consistent(*first, logs[i]);
    }
  }
};

NodeConfig with_small_blocks(NodeConfig c) {
  c.max_block_bytes = 60'000;
  c.propose_size = 30'000;
  return c;
}

struct ProtoParam {
  const char* name;
  NodeConfig (*make)(int, int, int);
};

class ProtocolP : public ::testing::TestWithParam<ProtoParam> {};

TEST_P(ProtocolP, AgreementTotalOrderUnderLoad) {
  const auto& param = GetParam();
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < n; ++i) c.add_node(with_small_blocks(param.make(n, f, i)));
  // Continuous load on every node.
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 40; ++k) {
      const double t = 0.05 * k;
      DlNode* node = c.nodes[static_cast<std::size_t>(i)];
      c.sim.queue().at(t, [node, i, k] {
        node->submit(random_bytes(2000, static_cast<std::uint64_t>(i * 1000 + k)));
      });
    }
  }
  c.sim.run_until(30.0);
  // Everyone delivered something and the logs are prefix-consistent.
  for (int i = 0; i < n; ++i) {
    EXPECT_GT(c.logs[static_cast<std::size_t>(i)].size(), 10u) << param.name;
    EXPECT_GT(c.nodes[static_cast<std::size_t>(i)]->stats().delivered_payload_bytes, 0u);
    // Every peer fetched every block, so delivered epochs were retired.
    EXPECT_LE(c.nodes[static_cast<std::size_t>(i)]->stats().resident_epochs, 16u)
        << param.name;
  }
  c.expect_all_logs_consistent();
}

TEST_P(ProtocolP, ProgressWithFCrashedNodes) {
  const auto& param = GetParam();
  const int n = 7, f = 2;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < n - f; ++i) c.add_node(with_small_blocks(param.make(n, f, i)));
  for (int i = n - f; i < n; ++i) c.add_crashed(i);
  for (int i = 0; i < n - f; ++i) {
    DlNode* node = c.nodes[static_cast<std::size_t>(i)];
    c.sim.queue().at(0.01, [node, i] {
      for (int k = 0; k < 10; ++k) {
        node->submit(random_bytes(1000, static_cast<std::uint64_t>(i * 100 + k)));
      }
    });
  }
  c.sim.run_until(30.0);
  for (int i = 0; i < n - f; ++i) {
    EXPECT_GT(c.logs[static_cast<std::size_t>(i)].size(), 0u) << param.name;
  }
  c.expect_all_logs_consistent();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolP,
    ::testing::Values(ProtoParam{"DL", &NodeConfig::dispersed_ledger},
                      ProtoParam{"DLCoupled", &NodeConfig::dl_coupled},
                      ProtoParam{"HB", &NodeConfig::honey_badger},
                      ProtoParam{"HBLink", &NodeConfig::hb_link}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(DlNode, ValidityEveryTxDeliveredEverywhere) {
  // Each node submits tagged transactions; every correct node must deliver
  // every one of them (DL's inter-node linking guarantees all correct
  // blocks are delivered — the paper's strengthened Validity).
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  std::vector<std::set<std::string>> delivered_tx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto cfg = with_small_blocks(NodeConfig::dispersed_ledger(n, f, i));
    auto* node = c.add_node(cfg);
    auto* got = &delivered_tx[static_cast<std::size_t>(i)];
    node->set_delivery_callback([got](std::uint64_t, BlockKey, const Block& b, double) {
      for (const auto& tx : b.txs) got->insert(to_string(tx.payload));
    });
  }
  std::set<std::string> submitted;
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 5; ++k) {
      const std::string tag = "tx-" + std::to_string(i) + "-" + std::to_string(k);
      submitted.insert(tag);
      DlNode* node = c.nodes[static_cast<std::size_t>(i)];
      c.sim.queue().at(0.1 * k, [node, tag] { node->submit(bytes_of(tag)); });
    }
  }
  c.sim.run_until(30.0);
  for (int i = 0; i < n; ++i) {
    for (const auto& tag : submitted) {
      EXPECT_TRUE(delivered_tx[static_cast<std::size_t>(i)].contains(tag))
          << "node " << i << " missing " << tag;
    }
  }
}

TEST(DlNode, DecoupledProgressUnderSpatialVariation) {
  // f+1 = 2 slow nodes (10x less bandwidth), so the (f+1)-th slowest node is
  // slow: HoneyBadger's epoch progress is gated by it at EVERY node, while
  // DispersedLedger lets the fast nodes confirm at their own pace. (With
  // only f slow nodes HB would simply leave them behind — the protocol only
  // waits for N-f nodes.)
  const int n = 4, f = 1;
  auto make_net = [] {
    sim::NetworkConfig net = sim::NetworkConfig::uniform(4, 0.02, 4e6);
    for (int i : {0, 1}) {
      net.egress[static_cast<std::size_t>(i)] = sim::Trace::constant(0.4e6);
      net.ingress[static_cast<std::size_t>(i)] = sim::Trace::constant(0.4e6);
    }
    return net;
  };

  auto run = [&](NodeConfig (*make)(int, int, int)) {
    Cluster c(make_net());
    for (int i = 0; i < n; ++i) {
      auto cfg = make(n, f, i);
      cfg.max_block_bytes = 120'000;
      cfg.backlog_tx_bytes = 250;  // infinite backlog
      c.add_node(cfg);
    }
    c.sim.run_until(30.0);
    std::vector<std::uint64_t> confirmed;
    for (auto* node : c.nodes) confirmed.push_back(node->stats().delivered_payload_bytes);
    c.expect_all_logs_consistent();
    return confirmed;
  };

  const auto dl = run(&NodeConfig::dispersed_ledger);
  const auto hb = run(&NodeConfig::honey_badger);

  // DL: a fast node confirms much more than a slow node.
  EXPECT_GT(dl[2], 2 * dl[0]);
  // HB: fast nodes are dragged down to (roughly) the straggler's pace —
  // all correct nodes deliver the same epochs, differing only by lag.
  EXPECT_LT(hb[2], 2 * hb[0] + 1'000'000);
  // And DL's fast nodes beat HB's fast nodes outright.
  EXPECT_GT(dl[2], hb[2]);
}

TEST(DlNode, InterNodeLinkingDeliversUncommittedBlocks) {
  // With a slow proposer, some of its dispersed blocks miss their epoch's
  // BA. Linking must deliver them later (delivered_linked_blocks > 0) and
  // identically at all nodes.
  const int n = 4, f = 1;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 2e6);
  net.egress[3] = sim::Trace::constant(0.3e6);
  net.ingress[3] = sim::Trace::constant(0.3e6);
  Cluster c(net);
  for (int i = 0; i < n; ++i) {
    auto cfg = NodeConfig::dispersed_ledger(n, f, i);
    cfg.max_block_bytes = 100'000;
    cfg.backlog_tx_bytes = 250;
    c.add_node(cfg);
  }
  c.sim.run_until(40.0);
  std::uint64_t linked = 0;
  for (auto* node : c.nodes) linked += node->stats().delivered_linked_blocks;
  EXPECT_GT(linked, 0u);
  c.expect_all_logs_consistent();
}

TEST(DlNode, HoneyBadgerDropsAndReproposes) {
  // Plain HB: the slow node's blocks get dropped (BA outputs 0) and their
  // transactions are re-proposed; with linking they would not be.
  const int n = 4, f = 1;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 2e6);
  net.egress[3] = sim::Trace::constant(0.2e6);
  net.ingress[3] = sim::Trace::constant(0.2e6);
  Cluster c(net);
  for (int i = 0; i < n; ++i) {
    auto cfg = NodeConfig::honey_badger(n, f, i);
    cfg.max_block_bytes = 100'000;
    cfg.backlog_tx_bytes = 250;
    c.add_node(cfg);
  }
  c.sim.run_until(40.0);
  std::uint64_t dropped = 0;
  for (auto* node : c.nodes) dropped += node->stats().own_blocks_dropped;
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(c.nodes[3]->stats().reproposed_tx, 0u);
  c.expect_all_logs_consistent();
}

TEST(DlNode, BadDisperserYieldsConsistentBadBlocks) {
  // A Byzantine proposer dispersing inconsistent encodings: all correct
  // nodes must agree on the BAD_UPLOADER outcome and keep making progress.
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < 3; ++i) {
    auto cfg = with_small_blocks(NodeConfig::dispersed_ledger(n, f, i));
    cfg.backlog_tx_bytes = 250;
    cfg.max_block_bytes = 50'000;
    c.add_node(cfg);
  }
  c.add_node(with_small_blocks(adversary::bad_disperser_config(n, f, 3)));
  c.sim.run_until(30.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(c.nodes[static_cast<std::size_t>(i)]->stats().delivered_payload_bytes, 0u);
    EXPECT_GT(c.nodes[static_cast<std::size_t>(i)]->stats().bad_uploader_blocks, 0u);
  }
  c.expect_all_logs_consistent();
}

TEST(DlNode, VLiarCannotStallLinking) {
  // A proposer reporting inflated V arrays: the (f+1)-th-largest rule must
  // clip its lies; the system keeps delivering and logs stay consistent.
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < 3; ++i) {
    auto cfg = with_small_blocks(NodeConfig::dispersed_ledger(n, f, i));
    cfg.backlog_tx_bytes = 250;
    cfg.max_block_bytes = 50'000;
    c.add_node(cfg);
  }
  c.add_node(with_small_blocks(adversary::v_liar_config(n, f, 3)));
  c.sim.run_until(30.0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(c.logs[static_cast<std::size_t>(i)].size(), 10u);
  }
  c.expect_all_logs_consistent();
}

TEST(DlNode, DlCoupledProposesEmptyWhenBehind) {
  // DL-Coupled on a slow node: when retrieval lags, the node participates
  // with empty blocks (spam defense of §4.5).
  const int n = 4, f = 1;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 3e6);
  net.egress[0] = sim::Trace::constant(0.25e6);
  net.ingress[0] = sim::Trace::constant(0.25e6);
  Cluster c(net);
  for (int i = 0; i < n; ++i) {
    auto cfg = NodeConfig::dl_coupled(n, f, i);
    cfg.max_block_bytes = 100'000;
    cfg.backlog_tx_bytes = 250;
    c.add_node(cfg);
  }
  c.sim.run_until(40.0);
  EXPECT_GT(c.nodes[0]->stats().proposed_empty_blocks, 0u);
  c.expect_all_logs_consistent();
}

TEST(DlNode, FallBehindStopThrottlesProposals) {
  const int n = 4, f = 1;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 3e6);
  net.egress[0] = sim::Trace::constant(0.25e6);
  net.ingress[0] = sim::Trace::constant(0.25e6);
  Cluster c(net);
  for (int i = 0; i < n; ++i) {
    auto cfg = NodeConfig::dispersed_ledger(n, f, i);
    cfg.max_block_bytes = 100'000;
    cfg.backlog_tx_bytes = 250;
    cfg.fall_behind_stop = (i == 0) ? 3 : 0;  // P=3 for the slow node
    c.add_node(cfg);
  }
  c.sim.run_until(40.0);
  // The slow node must not have dispersed more than P epochs past its
  // delivery frontier (+1: the gate is checked before each proposal).
  const auto& s = c.nodes[0]->stats();
  EXPECT_LE(s.current_dispersal_epoch, c.nodes[0]->next_epoch_to_deliver() + 4);
  c.expect_all_logs_consistent();
}

TEST(DlNode, EpochsAdvanceWithoutRetrievalInDL) {
  // The core decoupling claim: a DL node participates in dispersal for
  // epochs far beyond what it has retrieved.
  const int n = 4, f = 1;
  sim::NetworkConfig net = sim::NetworkConfig::uniform(n, 0.02, 3e6);
  net.egress[0] = sim::Trace::constant(0.3e6);
  net.ingress[0] = sim::Trace::constant(0.3e6);
  Cluster c(net);
  for (int i = 0; i < n; ++i) {
    auto cfg = NodeConfig::dispersed_ledger(n, f, i);
    cfg.max_block_bytes = 150'000;
    cfg.backlog_tx_bytes = 250;
    c.add_node(cfg);
  }
  c.sim.run_until(30.0);
  const auto& slow = c.nodes[0]->stats();
  EXPECT_GT(slow.current_dispersal_epoch, c.nodes[0]->next_epoch_to_deliver() + 2);
}

TEST(DlNode, FingerprintsMatchAtEqualBlockCounts) {
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < n; ++i) {
    auto cfg = with_small_blocks(NodeConfig::dispersed_ledger(n, f, i));
    cfg.backlog_tx_bytes = 250;
    cfg.max_block_bytes = 40'000;
    c.add_node(cfg);
  }
  c.sim.run_until(20.0);
  // If two nodes delivered the same number of blocks, their delivery-chain
  // fingerprints must be identical.
  for (int i = 1; i < n; ++i) {
    if (c.nodes[0]->stats().delivered_blocks ==
        c.nodes[static_cast<std::size_t>(i)]->stats().delivered_blocks) {
      EXPECT_EQ(c.nodes[0]->delivery_fingerprint(),
                c.nodes[static_cast<std::size_t>(i)]->delivery_fingerprint());
    }
  }
  c.expect_all_logs_consistent();
}

TEST(DlNode, NoLoadStillLive) {
  // Zero transactions: epochs tick with empty blocks, nothing crashes, and
  // no payload is "confirmed".
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 1e6));
  for (int i = 0; i < n; ++i) c.add_node(NodeConfig::dispersed_ledger(n, f, i));
  c.sim.run_until(5.0);
  for (auto* node : c.nodes) {
    EXPECT_GT(node->stats().delivered_epochs, 0u);
    EXPECT_EQ(node->stats().delivered_payload_bytes, 0u);
  }
  c.expect_all_logs_consistent();
}

TEST(DlNode, GarbageMessagesIgnored) {
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < n; ++i) c.add_node(with_small_blocks(NodeConfig::dispersed_ledger(n, f, i)));
  // Inject garbage directly into node 0 at various times.
  for (int k = 0; k < 20; ++k) {
    c.sim.queue().at(0.1 * k, [&c, k] {
      sim::Message m;
      m.from = 3;
      m.to = 0;
      m.payload = std::make_shared<Bytes>(random_bytes(64, static_cast<std::uint64_t>(k)));
      c.sim.network().send(std::move(m));
    });
  }
  c.nodes[0]->submit(bytes_of("real-tx"));
  c.sim.run_until(10.0);
  EXPECT_GT(c.nodes[1]->stats().delivered_payload_bytes, 0u);
  c.expect_all_logs_consistent();
}

TEST(DlNode, AbsurdEpochMessageBounded) {
  // A message naming an absurd epoch must not blow up memory or crash.
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < n; ++i) c.add_node(NodeConfig::dispersed_ledger(n, f, i));
  c.sim.queue().at(0.5, [&c] {
    Envelope env;
    env.kind = MsgKind::BaBval;
    env.epoch = 1'000'000'000;
    env.instance = 0;
    env.body = ba::BaRoundMsg{0, true}.encode();
    sim::Message m;
    m.from = 3;
    m.to = 0;
    m.payload = std::make_shared<Bytes>(env.encode());
    c.sim.network().send(std::move(m));
  });
  c.sim.run_until(5.0);
  for (auto* node : c.nodes) EXPECT_GT(node->stats().delivered_epochs, 0u);
}

// --- bounded memory: chunk release and epoch retirement ---------------------

NodeConfig fast_epochs(int n, int f, int i) {
  NodeConfig c = NodeConfig::dispersed_ledger(n, f, i);
  c.propose_delay = 0.002;
  c.backlog_tx_bytes = 100;
  c.max_block_bytes = 2'000;
  return c;
}

// Largest resident-epoch count and retained chunk bytes any node reported,
// sampled every `period` virtual seconds until `until`.
struct MemoryPeaks {
  std::uint64_t epochs = 0;
  std::uint64_t chunk_bytes = 0;
};

void sample_peaks(Cluster& c, MemoryPeaks& peaks, double period, double until) {
  for (double t = period; t < until; t += period) {
    c.sim.queue().at(t, [&c, &peaks] {
      for (DlNode* node : c.nodes) {
        if (node == nullptr) continue;
        peaks.epochs = std::max(peaks.epochs, node->stats().resident_epochs);
        peaks.chunk_bytes =
            std::max(peaks.chunk_bytes, node->stats().retained_chunk_bytes);
      }
    });
  }
}

TEST(DlNodeMemory, LongRunKeepsResidentEpochsAndChunksFlat) {
  // Every peer fetches every block, so each AVID-M server releases its
  // chunk and each delivered epoch retires. Over thousands of epochs the
  // resident state must stay under a small constant, and freeing it must
  // not change what is delivered.
  const int n = 4, f = 1;
  const std::uint64_t kEpochs = 5'000;
  const double kRunFor = 60.0;
  Cluster c(sim::NetworkConfig::uniform(n, 0.001, 20e6));
  std::vector<Hash> fp_at(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    DlNode* node = c.add_node(fast_epochs(n, f, i));
    Hash* fp = &fp_at[static_cast<std::size_t>(i)];
    node->set_delivery_callback(
        [node, fp, kEpochs](std::uint64_t at, BlockKey, const Block&, double) {
          if (at < kEpochs) *fp = node->delivery_fingerprint();
        });
  }
  MemoryPeaks peaks;
  sample_peaks(c, peaks, 0.25, kRunFor);
  c.sim.run_until(kRunFor);

  for (int i = 0; i < n; ++i) {
    const NodeStats& s = c.nodes[static_cast<std::size_t>(i)]->stats();
    ASSERT_GE(s.delivered_epochs, kEpochs) << "node " << i;
    EXPECT_EQ(fp_at[static_cast<std::size_t>(i)], fp_at[0]) << "node " << i;
  }
  // A few epochs are in flight at any time (dispersing, agreeing, or
  // waiting for the last peer's fetch); none accumulate.
  EXPECT_LE(peaks.epochs, 16u);
  EXPECT_LE(peaks.chunk_bytes, 32u * 1024);
}

TEST(DlNodeMemory, CrashedPeerPinsChunksButProgressHolds) {
  // The documented limit: a crashed peer never fetches, so no server can
  // release and no epoch retires. Agreement and progress are unaffected.
  const int n = 4, f = 1;
  Cluster c(sim::NetworkConfig::uniform(n, 0.001, 20e6));
  for (int i = 0; i < n - 1; ++i) c.add_node(fast_epochs(n, f, i));
  c.add_crashed(n - 1);
  c.sim.run_until(2.0);
  std::vector<std::uint64_t> mid;
  for (int i = 0; i < n - 1; ++i) {
    mid.push_back(c.nodes[static_cast<std::size_t>(i)]->stats().retained_chunk_bytes);
  }
  c.sim.run_until(4.0);
  for (int i = 0; i < n - 1; ++i) {
    const NodeStats& s = c.nodes[static_cast<std::size_t>(i)]->stats();
    EXPECT_GT(s.delivered_epochs, 100u) << "node " << i;
    EXPECT_GE(s.resident_epochs, s.delivered_epochs) << "node " << i;
    EXPECT_GT(s.retained_chunk_bytes, mid[static_cast<std::size_t>(i)])
        << "node " << i;
  }
  c.expect_all_logs_consistent();
}

// --- durable store: recovery replay and VID-coded catch-up ------------------

struct StoreDirs {
  std::string root;
  StoreDirs() {
    char tmpl[] = "/tmp/dl_catchup_test.XXXXXX";
    root = mkdtemp(tmpl);
  }
  ~StoreDirs() { std::filesystem::remove_all(root); }
  std::string node_dir(int i) const { return root + "/n" + std::to_string(i); }
};

NodeConfig with_catch_up(NodeConfig c) {
  c = with_small_blocks(c);
  c.catch_up_interval = 0.2;
  return c;
}

std::unique_ptr<storage::LedgerStore> open_store(const std::string& dir) {
  std::string err;
  auto store = storage::LedgerStore::open(dir, {}, &err);
  EXPECT_NE(store, nullptr) << err;
  return store;
}

TEST(DlNodeStore, RecoveryReplaysFingerprintAndStats) {
  // Phase 1: a live cluster commits a prefix into per-node stores.
  const int n = 4, f = 1;
  StoreDirs dirs;
  Hash fp;
  NodeStats live{};
  {
    std::vector<std::unique_ptr<storage::LedgerStore>> stores;
    Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
    for (int i = 0; i < n; ++i) {
      DlNode* node = c.add_node(
          with_small_blocks(NodeConfig::dispersed_ledger(n, f, i)));
      stores.push_back(open_store(dirs.node_dir(i)));
      ASSERT_NE(stores.back(), nullptr);
      node->attach_store(stores.back().get());
    }
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < 30; ++k) {
        DlNode* node = c.nodes[static_cast<std::size_t>(i)];
        c.sim.queue().at(0.05 * k, [node, i, k] {
          node->submit(
              random_bytes(2000, static_cast<std::uint64_t>(i * 1000 + k)));
        });
      }
    }
    c.sim.run_until(10.0);
    ASSERT_GT(c.nodes[1]->stats().delivered_epochs, 5u);
    fp = c.nodes[1]->delivery_fingerprint();
    live = c.nodes[1]->stats();
    EXPECT_EQ(stores[1]->delivered_frontier(), live.delivered_epochs);
  }
  // Phase 2: a cold restart of node 1. attach_store alone — before any
  // message or timer — must rebuild the delivery state the live run had:
  // the fingerprint chain is hashed over the recovered bytes, so equality
  // proves the store returned every delivered block byte-identically and
  // in delivery order.
  auto store = open_store(dirs.node_dir(1));
  ASSERT_NE(store, nullptr);
  sim::Simulator sim2(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  runtime::SimEnv env2(sim2, 1);
  DlNode node(with_small_blocks(NodeConfig::dispersed_ledger(n, f, 1)), env2);
  node.attach_store(store.get());
  EXPECT_EQ(node.delivery_fingerprint(), fp);
  EXPECT_EQ(node.stats().delivered_epochs, live.delivered_epochs);
  EXPECT_EQ(node.stats().recovered_epochs, live.delivered_epochs);
  EXPECT_EQ(node.stats().delivered_blocks, live.delivered_blocks);
  EXPECT_EQ(node.stats().delivered_linked_blocks, live.delivered_linked_blocks);
  EXPECT_EQ(node.stats().delivered_payload_bytes, live.delivered_payload_bytes);
  EXPECT_EQ(node.stats().delivered_tx_count, live.delivered_tx_count);
}

TEST(DlNodeStore, LateJoinerCatchesUpViaCodedChunks) {
  // Nodes 0..2 run (and persist) from t=0; node 3 is dark until t=8, then
  // joins with an EMPTY store. It must discover the committed frontier,
  // pull coded chunks from f+1-agreeing peers for every missed epoch,
  // install them in delivery order, and then keep up LIVE through BA.
  const int n = 4, f = 1;
  StoreDirs dirs;
  std::vector<std::unique_ptr<storage::LedgerStore>> stores(4);
  Cluster c(sim::NetworkConfig::uniform(n, 0.02, 2e6));
  for (int i = 0; i < 3; ++i) {
    DlNode* node =
        c.add_node(with_catch_up(NodeConfig::dispersed_ledger(n, f, i)));
    stores[static_cast<std::size_t>(i)] = open_store(dirs.node_dir(i));
    ASSERT_NE(stores[static_cast<std::size_t>(i)], nullptr);
    node->attach_store(stores[static_cast<std::size_t>(i)].get());
  }
  c.add_crashed(3);
  // Load on the live nodes until t=20 (the run ends at t=30, so the joiner
  // also sees a stretch of live traffic after it has caught up).
  for (int i = 0; i < 3; ++i) {
    for (int k = 0; k < 80; ++k) {
      DlNode* node = c.nodes[static_cast<std::size_t>(i)];
      c.sim.queue().at(0.25 * k, [node, i, k] {
        node->submit(
            random_bytes(2000, static_cast<std::uint64_t>(i * 1000 + k)));
      });
    }
  }
  c.sim.queue().at(8.0, [&] {
    DlNode* node =
        c.add_node(with_catch_up(NodeConfig::dispersed_ledger(n, f, 3)));
    stores[3] = open_store(dirs.node_dir(3));
    if (stores[3] == nullptr) return;
    node->attach_store(stores[3].get());
    c.envs.back()->start();  // mid-run attach: fire start() ourselves
  });
  c.sim.run_until(30.0);

  DlNode* joiner = c.nodes[3];
  ASSERT_NE(joiner, nullptr);
  const NodeStats& js = joiner->stats();
  EXPECT_EQ(js.recovered_epochs, 0u);  // store was empty
  EXPECT_GT(js.catch_up_rounds, 0u);
  EXPECT_GT(js.caught_up_epochs, 0u);
  EXPECT_GT(js.caught_up_blocks, 0u);
  // Caught up to (within a breath of) the live frontier...
  EXPECT_GE(js.delivered_epochs + 8, c.nodes[0]->stats().delivered_epochs);
  // ...and delivered epochs through live BA beyond what catch-up installed.
  EXPECT_GT(js.delivered_epochs, js.caught_up_epochs);
  // Full-history agreement: the joiner reconstructed the ledger from epoch
  // 0, so its whole delivery log must match a node that lived through it.
  ASSERT_GT(c.logs[3].size(), 10u);
  Cluster::expect_prefix_consistent(c.logs[0], c.logs[3]);
  // Everything it pulled is in its own store, ready to serve others.
  EXPECT_EQ(stores[3]->delivered_frontier(), js.delivered_epochs);
}

}  // namespace
}  // namespace dl::core
