// Quickstart: a 4-node DispersedLedger cluster on the simulated network.
//
//   * build a uniform network (50 ms one-way delay, 2 MB/s per node)
//   * start 4 DlNode replicas (f = 1)
//   * submit a handful of transactions to different nodes
//   * watch every replica deliver the same totally-ordered log
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "dl/node.hpp"
#include "runtime/sim_env.hpp"

using namespace dl;
using namespace dl::core;

int main() {
  const int n = 4, f = 1;

  // 1. The network: every node gets an ingress and egress link of 2 MB/s,
  //    and every pair is 50 ms apart.
  sim::Simulator sim(sim::NetworkConfig::uniform(n, 0.050, 2e6));

  // 2. The replicas. NodeConfig::dispersed_ledger gives the full protocol:
  //    AVID-M dispersal, binary agreement, lazy retrieval, inter-node
  //    linking.
  std::vector<std::unique_ptr<runtime::SimEnv>> envs;
  std::vector<std::unique_ptr<DlNode>> nodes;
  for (int i = 0; i < n; ++i) {
    envs.push_back(std::make_unique<runtime::SimEnv>(sim, i));
    auto node = std::make_unique<DlNode>(NodeConfig::dispersed_ledger(n, f, i),
                                         *envs.back());
    envs.back()->attach(*node);
    // Print node 0's view of the log as it executes blocks.
    if (i == 0) {
      node->set_delivery_callback([](std::uint64_t at_epoch, BlockKey key,
                                     const BlockView& block, double now) {
        for (const auto& tx : block.txs) {
          std::printf("[%.3fs] epoch %llu delivered tx \"%s\" (proposed by node %d)\n",
                      now, static_cast<unsigned long long>(at_epoch),
                      to_string(tx.payload).c_str(), key.proposer);
        }
      });
    }
    nodes.push_back(std::move(node));
  }

  // 3. Clients: submit transactions to different nodes at different times.
  const char* payloads[] = {"pay alice 10", "pay bob 7", "mint 100", "pay carol 3"};
  for (int i = 0; i < 4; ++i) {
    sim.queue().at(0.05 + 0.3 * i, [&nodes, &payloads, i] {
      nodes[static_cast<std::size_t>(i)]->submit(bytes_of(payloads[i]));
      std::printf("[%.3fs] client submitted \"%s\" to node %d\n", 0.05 + 0.3 * i,
                  payloads[i], i);
    });
  }

  // 4. Run 10 virtual seconds.
  sim.run_until(10.0);

  // 5. Every replica delivered the same log (compare chained fingerprints).
  std::printf("\nreplica delivery fingerprints:\n");
  for (int i = 0; i < n; ++i) {
    std::printf("  node %d: %s (%llu blocks)\n", i,
                nodes[static_cast<std::size_t>(i)]->delivery_fingerprint().hex().substr(0, 16).c_str(),
                static_cast<unsigned long long>(
                    nodes[static_cast<std::size_t>(i)]->stats().delivered_blocks));
  }
  return 0;
}
