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
      node_(node_config(cluster, opt), env_) {
  if (store_ != nullptr) node_.attach_store(store_.get());
  node_.set_flight_recorder(flight_.get());

  if (opt.client_plane) {
    const net::NodeAddr& me = cluster.nodes[static_cast<std::size_t>(opt.id)];
    client::Gateway::Sink sink;
    sink.submit = [this](std::vector<Bytes> batch) {
      for (Bytes& payload : batch) node_.submit(std::move(payload));
    };
    sink.queue_bytes = [this] { return node_.input_queue_bytes(); };
    sink.max_block_bytes = node_.config().max_block_bytes;
    client::MempoolOptions mempool = opt.mempool;
    // A transaction must fit into a block next to its header.
    mempool.max_tx_bytes =
        std::min(mempool.max_tx_bytes, node_.config().max_block_bytes / 2);
    gateway_ = std::make_unique<client::Gateway>(home, std::move(sink), me.host,
                                                 me.client_port, mempool);
  }

  node_.set_delivery_callback([this](std::uint64_t at_epoch,
                                     core::BlockKey key,
                                     const core::BlockView& block, double now) {
    if (hook_) hook_(at_epoch, key, block, now);
    if (gateway_ != nullptr) notify_gateway(at_epoch, key, block, now);
  });

  const bool metrics = opt.metrics || opt.admin_port >= 0;
  if (metrics) {
    exporter_ = std::make_unique<obs::NodeExporter>(
        registry_,
        obs::ExporterSources{node_, env_, home, gateway_.get(), store_.get()});
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

void Replica::notify_gateway(std::uint64_t at_epoch, const core::BlockKey& key,
                             const core::BlockView& block, double now) {
  client::CommitBatch batch;
  batch.at_epoch = at_epoch;
  batch.proposer = static_cast<std::uint32_t>(key.proposer);
  batch.delivered_at = now;
  if (key.proposer == node_.config().self) {
    if (const auto* st = node_.own_block_stages(key.epoch)) batch.stages = *st;
  }
  // Views into the delivered bytes, which live until the callback returns.
  batch.payloads.reserve(block.txs.size());
  for (const core::TxView& tx : block.txs) batch.payloads.push_back(tx.payload);
  gateway_->on_commit_batch(batch);
}

void Replica::start(const RecoveredFn& recovered) {
  if (store_ != nullptr && (gateway_ != nullptr || recovered)) {
    const int n = node_.config().n;
    store_->for_each_committed([&](const storage::BlockRecord& r) {
      const core::BlockView block = core::BlockView::decode_delivered(
          r.bad_uploader ? nullptr : &r.content, n);
      if (gateway_ != nullptr) {
        for (const core::TxView& tx : block.txs) {
          gateway_->mempool().seed_committed(sha256(tx.payload), r.at_epoch,
                                             r.proposer);
        }
      }
      if (recovered) recovered(r, block);
      return true;
    });
  }
  env_.start(node_);
  if (gateway_ != nullptr) gateway_->start();
}

void Replica::stop() {
  if (gateway_ != nullptr) gateway_->shutdown();
  if (store_ != nullptr) store_->sync();
}

}  // namespace dl::app
