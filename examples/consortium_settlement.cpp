// Consortium settlement: the deployment §2.1 motivates — seven organizations
// (banks) run one replica each; clients submit settlement transactions
// through their own organization's node and trust it.
//
// Shows: per-organization confirmation latency under Poisson load, continued
// operation when f = 2 organizations go dark mid-run, and that the surviving
// organizations' ledgers stay identical.
#include <cstdio>
#include <memory>
#include <vector>

#include "dl/node.hpp"
#include "metrics/metrics.hpp"
#include "runtime/sim_env.hpp"
#include "workload/txgen.hpp"

using namespace dl;
using namespace dl::core;

int main() {
  const int n = 7, f = 2;
  const char* orgs[] = {"atlas-bank", "borealis",   "castellan", "dorado",
                        "eastbridge", "first-union", "gable-trust"};

  // Consortium WAN: 30 ms one-way, 4 MB/s per org.
  sim::Simulator sim(sim::NetworkConfig::uniform(n, 0.030, 4e6));

  std::vector<std::unique_ptr<runtime::SimEnv>> envs;
  std::vector<std::unique_ptr<DlNode>> nodes;
  std::vector<metrics::Percentile> latency(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    envs.push_back(std::make_unique<runtime::SimEnv>(sim, i));
    auto node = std::make_unique<DlNode>(NodeConfig::dispersed_ledger(n, f, i),
                                         *envs.back());
    envs.back()->attach(*node);
    auto* lat = &latency[static_cast<std::size_t>(i)];
    const auto self = static_cast<std::uint32_t>(i);
    node->set_delivery_callback([lat, self](std::uint64_t, BlockKey, const BlockView& b,
                                            double now) {
      for (const auto& tx : b.txs) {
        if (tx.origin == self) lat->add(now - tx.submit_time);
      }
    });
    nodes.push_back(std::move(node));
  }

  // Settlement load: 200 KB/s of 400-byte transactions per organization.
  std::vector<std::unique_ptr<workload::PoissonTxGen>> gens;
  for (int i = 0; i < n; ++i) {
    workload::TxGenParams p;
    p.rate_bytes_per_sec = 200e3;
    p.tx_bytes = 400;
    p.seed = 100 + static_cast<std::uint64_t>(i);
    DlNode* node = nodes[static_cast<std::size_t>(i)].get();
    gens.push_back(std::make_unique<workload::PoissonTxGen>(
        p, sim.queue(), [node](Bytes tx) { node->submit(std::move(tx)); }));
    sim.queue().at(0, [g = gens.back().get()] { g->start(); });
  }

  // At t=20s, two organizations suffer an outage (become silent): the
  // consortium (n=7, f=2) must keep settling.
  sim.queue().at(20.0, [&sim] {
    std::printf("[20.000s] outage: gable-trust and first-union go dark\n");
    for (int dead : {5, 6}) {
      sim.network().set_handler(dead, [](sim::Message&&) {});
    }
  });

  sim.run_until(40.0);

  std::printf("\norganization        p50 lat   p95 lat   settled-tx   ledger-epochs\n");
  for (int i = 0; i < 5; ++i) {  // surviving organizations
    const auto& st = nodes[static_cast<std::size_t>(i)]->stats();
    std::printf("%-18s  %6.2fs   %6.2fs   %9llu   %8llu\n", orgs[i],
                latency[static_cast<std::size_t>(i)].quantile(0.5),
                latency[static_cast<std::size_t>(i)].quantile(0.95),
                static_cast<unsigned long long>(st.delivered_tx_count),
                static_cast<unsigned long long>(st.delivered_epochs));
  }
  std::printf("\nledger fingerprints (must match at equal block counts):\n");
  for (int i = 0; i < 5; ++i) {
    std::printf("  %-18s %s  (%llu blocks)\n", orgs[i],
                nodes[static_cast<std::size_t>(i)]->delivery_fingerprint().hex().substr(0, 16).c_str(),
                static_cast<unsigned long long>(
                    nodes[static_cast<std::size_t>(i)]->stats().delivered_blocks));
  }
  return 0;
}
