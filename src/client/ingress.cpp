#include "client/ingress.hpp"

#include <pthread.h>

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace dl::client {

IngressShards::IngressShards(core::DlNode& node, net::EventLoop& home,
                             const std::string& host, std::uint16_t port,
                             Options opt)
    : node_(node), home_(home) {
  const int n = std::max(1, opt.shards);

  Gateway::Sink sink;
  sink.max_block_bytes = node_.config().max_block_bytes;
  // Atomic gauge: safe from any shard thread. It lags in-flight posted
  // batches, which the gateway's drain accounts for locally.
  sink.queue_bytes = [this] { return node_.input_queue_bytes(); };
  if (n == 1) {
    // The lone shard shares the node's loop: submit in place.
    sink.submit = [this](std::vector<Bytes> batch) {
      for (Bytes& payload : batch) node_.submit(std::move(payload));
    };
  } else {
    // One cross-thread post per drained batch, not per transaction.
    sink.submit = [this](std::vector<Bytes> batch) {
      home_.post([this, batch = std::move(batch)]() mutable {
        for (Bytes& payload : batch) node_.submit(std::move(payload));
      });
    };
  }

  shards_.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (n > 1) s.loop = std::make_unique<net::EventLoop>();
    // Shard 0 resolves a port-0 bind; the rest must join the same port, and
    // every socket carries SO_REUSEPORT from birth so the group forms.
    const std::uint16_t p = i == 0 ? port : listen_port_;
    s.gateway = std::make_unique<Gateway>(s.loop ? *s.loop : home_, sink, host,
                                          p, opt.mempool);
    if (i == 0) listen_port_ = s.gateway->listen_port();
  }
}

IngressShards::~IngressShards() { shutdown(); }

void IngressShards::start() {
  if (started_ || shut_down_) return;
  started_ = true;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (!s.loop) {
      s.gateway->start();
      continue;
    }
    // Gateway::start touches the loop's epoll/timers, so it must run on the
    // shard thread: posted tasks drain at the top of run().
    s.loop->post([g = s.gateway.get()] { g->start(); });
    s.thread = std::thread([lp = s.loop.get()] { lp->run(); });
    pthread_setname_np(s.thread.native_handle(),
                       ("shard" + std::to_string(i)).c_str());
  }
}

void IngressShards::on_block_delivered(std::uint64_t at_epoch,
                                       const core::BlockKey& key,
                                       const core::BlockView& block, double now) {
  if (shut_down_) return;
  auto batch = std::make_shared<CommitBatch>();
  batch->at_epoch = at_epoch;
  batch->proposer = static_cast<std::uint32_t>(key.proposer);
  batch->delivered_at = now;
  if (key.proposer == node_.config().self) {
    if (const auto* st = node_.own_block_stages(key.epoch)) batch->stages = *st;
  }
  // The payload views point into the delivered bytes, which the batch
  // shares; nothing is hashed here (each shard hashes only its matches).
  batch->content = node_.delivered_content();
  batch->payloads.reserve(block.txs.size());
  for (const core::TxView& tx : block.txs) batch->payloads.push_back(tx.payload);

  std::shared_ptr<const CommitBatch> shared = std::move(batch);
  for (Shard& s : shards_) {
    if (s.loop) {
      s.loop->post([g = s.gateway.get(), shared] { g->on_commit_batch(*shared); });
    } else {
      s.gateway->on_commit_batch(*shared);
    }
  }
}

void IngressShards::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (Shard& s : shards_) {
    if (s.thread.joinable()) {
      // Run the Goodbye/flush sequence on the shard's own thread, then stop
      // its loop; join before touching the next shard so teardown is
      // deterministic.
      net::EventLoop* lp = s.loop.get();
      Gateway* g = s.gateway.get();
      lp->post([g, lp] {
        g->shutdown();
        lp->stop();
      });
      s.thread.join();
    } else {
      s.gateway->shutdown();  // home-loop shard, or never started
    }
  }
}

void IngressShards::seed_committed(const Hash& h, std::uint64_t epoch,
                                   std::uint32_t proposer) {
  assert(!started_);  // shard mempools are thread-confined after start()
  for (Shard& s : shards_) {
    s.gateway->mempool().seed_committed(h, epoch, proposer);
  }
}

Gateway::Stats IngressShards::aggregate_stats() const {
  // Per-shard counters are relaxed atomics: this is a live per-field
  // snapshot, callable from any thread while the shards run.
  Gateway::Stats total;
  for (const Shard& s : shards_) {
    const Gateway::Stats& st = s.gateway->stats();
    total.accepted += st.accepted;
    total.active += st.active;
    total.submits += st.submits;
    total.commits_notified += st.commits_notified;
    total.commits_clientless += st.commits_clientless;
    total.disconnects_slow += st.disconnects_slow;
    total.disconnects_bad += st.disconnects_bad;
  }
  return total;
}

MempoolStats IngressShards::aggregate_mempool_stats() const {
  MempoolStats total;
  for (const Shard& s : shards_) {
    const MempoolStats& st = s.gateway->mempool().stats();
    total.admitted += st.admitted;
    total.admitted_bytes += st.admitted_bytes;
    total.dropped_duplicate += st.dropped_duplicate;
    total.dropped_full += st.dropped_full;
    total.dropped_full_bytes += st.dropped_full_bytes;
    total.dropped_oversize += st.dropped_oversize;
    total.committed += st.committed;
    total.committed_replays += st.committed_replays;
    total.seeded += st.seeded;
  }
  return total;
}

}  // namespace dl::client
