#include "runner/experiment.hpp"

#include <algorithm>

#include "adversary/adversary.hpp"
#include "runtime/sim_env.hpp"
#include "workload/txgen.hpp"

namespace dl::runner {

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::DL: return "DL";
    case Protocol::DLCoupled: return "DL-Coupled";
    case Protocol::HB: return "HB";
    case Protocol::HBLink: return "HB-Link";
  }
  return "?";
}

core::NodeConfig make_node_config(const ExperimentConfig& cfg, int self) {
  core::NodeConfig nc;
  switch (cfg.protocol) {
    case Protocol::DL:
      nc = core::NodeConfig::dispersed_ledger(cfg.n, cfg.f, self);
      break;
    case Protocol::DLCoupled:
      nc = core::NodeConfig::dl_coupled(cfg.n, cfg.f, self);
      break;
    case Protocol::HB:
      nc = core::NodeConfig::honey_badger(cfg.n, cfg.f, self);
      break;
    case Protocol::HBLink:
      nc = core::NodeConfig::hb_link(cfg.n, cfg.f, self);
      break;
  }
  nc.coin_seed = cfg.seed ^ 0xD15Fu;
  nc.max_block_bytes = cfg.max_block_bytes;
  nc.propose_size = cfg.propose_size;
  nc.propose_delay = cfg.propose_delay;
  nc.fall_behind_stop = cfg.fall_behind_stop;
  nc.cancel_on_decode = cfg.cancel_on_decode;
  if (!cfg.inter_node_linking) nc.inter_node_linking = false;
  if (cfg.repropose_dropped) nc.repropose_dropped = true;
  if (cfg.load_bytes_per_sec <= 0) nc.backlog_tx_bytes = cfg.tx_bytes;
  if (std::find(cfg.bad_dispersers.begin(), cfg.bad_dispersers.end(), self) !=
      cfg.bad_dispersers.end()) {
    nc.byz_inconsistent_blocks = true;
  }
  if (std::find(cfg.v_liars.begin(), cfg.v_liars.end(), self) != cfg.v_liars.end()) {
    nc.byz_lie_v_array = true;
  }
  return nc;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  sim::Simulator sim(cfg.net);
  ExperimentResult result;
  result.nodes.resize(static_cast<std::size_t>(cfg.n));

  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<std::unique_ptr<runtime::SimEnv>> envs;
  std::vector<std::unique_ptr<core::DlNode>> node_owners;
  std::vector<core::DlNode*> nodes(static_cast<std::size_t>(cfg.n), nullptr);
  std::vector<std::unique_ptr<workload::PoissonTxGen>> gens;

  for (int i = 0; i < cfg.n; ++i) {
    const bool crashed = std::find(cfg.crashed.begin(), cfg.crashed.end(), i) !=
                         cfg.crashed.end();
    if (crashed) {
      hosts.push_back(std::make_unique<adversary::CrashNode>());
      sim.attach(i, hosts.back().get());
      continue;
    }
    envs.push_back(std::make_unique<runtime::SimEnv>(sim, i));
    auto node =
        std::make_unique<core::DlNode>(make_node_config(cfg, i), *envs.back());
    envs.back()->attach(*node);
    core::DlNode* raw = node.get();
    nodes[static_cast<std::size_t>(i)] = raw;
    NodeResult* res = &result.nodes[static_cast<std::size_t>(i)];
    const int self = i;
    raw->set_delivery_callback([res, self, &sim](std::uint64_t, core::BlockKey,
                                                 const core::BlockView& b, double now) {
      for (const auto& tx : b.txs) {
        const double lat = now - tx.submit_time;
        res->latency_all.add(lat);
        if (tx.origin == static_cast<std::uint32_t>(self)) res->latency_local.add(lat);
      }
      (void)sim;
    });
    node_owners.push_back(std::move(node));

    if (cfg.load_bytes_per_sec > 0) {
      workload::TxGenParams tp;
      tp.rate_bytes_per_sec = cfg.load_bytes_per_sec;
      tp.tx_bytes = cfg.tx_bytes;
      tp.seed = cfg.seed * 1000 + static_cast<std::uint64_t>(i);
      tp.stop_time = cfg.duration;
      tp.burst_period = cfg.burst_period;
      tp.burst_duty = cfg.burst_duty;
      gens.push_back(std::make_unique<workload::PoissonTxGen>(
          tp, sim.queue(), [raw](Bytes payload) { raw->submit(std::move(payload)); }));
      sim.queue().at(0, [g = gens.back().get()] { g->start(); });
    }
  }

  // Periodic sampling of confirmed bytes for the time-series plots.
  const int samples =
      static_cast<int>(cfg.duration / cfg.sample_interval) + 1;
  for (int s = 0; s <= samples; ++s) {
    const double t = s * cfg.sample_interval;
    if (t > cfg.duration) break;
    sim.queue().at(t, [&result, &nodes, t] {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i] == nullptr) continue;
        result.nodes[i].confirmed.sample(
            t, static_cast<double>(nodes[i]->stats().delivered_payload_bytes));
      }
    });
  }

  sim.run_until(cfg.duration);

  // Harvest results.
  double agg = 0;
  double frac_sum = 0;
  int frac_count = 0;
  for (int i = 0; i < cfg.n; ++i) {
    NodeResult& res = result.nodes[static_cast<std::size_t>(i)];
    core::DlNode* node = nodes[static_cast<std::size_t>(i)];
    if (node == nullptr) continue;
    res.stats = node->stats();
    res.delivered_blocks = node->stats().delivered_blocks;
    res.throughput_bps = res.confirmed.rate(cfg.warmup, cfg.duration);
    agg += res.throughput_bps;
    res.egress_high = sim.network().egress_bytes(i, sim::Priority::High);
    res.egress_low = sim.network().egress_bytes(i, sim::Priority::Low);
    res.ingress_high = sim.network().ingress_bytes(i, sim::Priority::High);
    res.ingress_low = sim.network().ingress_bytes(i, sim::Priority::Low);
    const double total = static_cast<double>(res.ingress_high + res.ingress_low);
    if (total > 0) {
      frac_sum += static_cast<double>(res.ingress_high) / total;
      ++frac_count;
    }
  }
  result.aggregate_throughput_bps = agg;
  result.mean_dispersal_fraction = frac_count > 0 ? frac_sum / frac_count : 0;
  return result;
}

}  // namespace dl::runner
