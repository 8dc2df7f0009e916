#include "app/replica.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace dl::app {

namespace {

std::unique_ptr<storage::LedgerStore> open_store(const ReplicaOptions& opt) {
  if (opt.store_dir.empty()) return nullptr;
  storage::StoreOptions sopt;
  sopt.fsync = opt.fsync;
  std::string err;
  auto store = storage::LedgerStore::open(opt.store_dir, sopt, &err);
  if (store == nullptr) {
    throw StoreOpenError("cannot open store " + opt.store_dir + ": " + err);
  }
  return store;
}

net::TcpEnv::Options env_options(const ReplicaOptions& opt) {
  net::TcpEnv::Options eopt;
  if (opt.adversary.kind == adversary::RealAdversary::Kind::Mute) {
    eopt.adversary = net::WireAdversary::Mute;
  } else if (opt.adversary.kind == adversary::RealAdversary::Kind::SlowDrip) {
    eopt.adversary = net::WireAdversary::SlowDrip;
    eopt.slow_drip_bytes_per_sec = opt.adversary.drip_bytes_per_sec;
  }
  return eopt;
}

core::NodeConfig node_config(const net::ClusterConfig& cluster,
                             const ReplicaOptions& opt) {
  core::NodeConfig cfg = opt.node;
  cfg.n = cluster.n;
  cfg.f = cluster.f;
  cfg.self = opt.id;
  // Protocol-level deviations (equivocate / v-liar): the byz flags the sim
  // adversary tests exercise, on a real wire.
  adversary::apply(opt.adversary, cfg);
  return cfg;
}

}  // namespace

Replica::Replica(net::EventLoop& home, const net::ClusterConfig& cluster,
                 ReplicaOptions opt)
    : loop_(home),
      store_(open_store(opt)),
      flight_(opt.flight_recorder || opt.admin_port >= 0
                  ? std::make_unique<obs::FlightRecorder>()
                  : nullptr),
      env_(home, cluster, opt.id, env_options(opt)),
      node_(node_config(cluster, opt), env_),
      pool_(opt.workers > 0 ? std::make_unique<runtime::WorkerPool>(opt.workers)
                            : nullptr) {
  env_.set_worker_pool(pool_.get());
  if (store_ != nullptr) node_.attach_store(store_.get());
  node_.set_flight_recorder(flight_.get());

  if (opt.loops > 0) {
    const net::NodeAddr& me = cluster.nodes[static_cast<std::size_t>(opt.id)];
    client::IngressShards::Options iopt;
    iopt.shards = opt.loops;
    iopt.mempool = opt.mempool;
    // A transaction must fit into a block next to its header.
    iopt.mempool.max_tx_bytes = std::min(iopt.mempool.max_tx_bytes,
                                         node_.config().max_block_bytes / 2);
    ingress_ = std::make_unique<client::IngressShards>(
        node_, home, me.host, me.client_port, iopt);
  }

  node_.set_delivery_callback([this](std::uint64_t at_epoch,
                                     core::BlockKey key,
                                     const core::BlockView& block, double now) {
    if (hook_) hook_(at_epoch, key, block, now);
    if (ingress_ != nullptr) ingress_->on_block_delivered(at_epoch, key, block, now);
  });

  const bool metrics = opt.metrics || opt.admin_port >= 0;
  if (metrics) {
    exporter_ = std::make_unique<obs::NodeExporter>(
        registry_,
        obs::ExporterSources{node_, env_, home, ingress_.get(), store_.get()});
  }
  if (opt.admin_port >= 0) {
    obs::AdminServer::Options aopt;
    aopt.port = static_cast<std::uint16_t>(opt.admin_port);
    aopt.pid = opt.id;
    admin_ = std::make_unique<obs::AdminServer>(home, registry_, aopt);
    admin_->set_flight_recorder(flight_.get());
  }
  // Last, so a constructor that throws never leaves the loop pointing into
  // this replica's registry.
  if (metrics) {
    home.set_task_histogram(registry_.histogram(
        "dl_loop_task_us", "task/timer run latency in microseconds",
        "loop=\"home\""));
    if (store_ != nullptr) {
      store_->set_drain_histogram(registry_.histogram(
          "dl_store_drain_us", "drain_io latency in microseconds"));
    }
  }
}

Replica::~Replica() {
  if (exporter_ != nullptr) loop_.set_task_histogram(nullptr);
}

void Replica::start(const RecoveredFn& recovered) {
  if (store_ != nullptr && (ingress_ != nullptr || recovered)) {
    const int n = node_.config().n;
    store_->for_each_committed([&](const storage::BlockRecord& r) {
      const core::BlockView block = core::BlockView::decode_delivered(
          r.bad_uploader ? nullptr : &r.content, n);
      if (ingress_ != nullptr) {
        for (const core::TxView& tx : block.txs) {
          ingress_->seed_committed(sha256(tx.payload), r.at_epoch, r.proposer);
        }
      }
      if (recovered) recovered(r, block);
      return true;
    });
  }
  env_.start(node_);
  if (ingress_ != nullptr) ingress_->start();
}

void Replica::stop() {
  if (ingress_ != nullptr) ingress_->shutdown();
  if (store_ != nullptr) store_->sync();
}

}  // namespace dl::app
