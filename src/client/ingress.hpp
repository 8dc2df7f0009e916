// IngressShards — the client ingress plane of one replica.
//
// N client::Gateways, all bound to ONE client port via SO_REUSEPORT: the
// kernel spreads accepted connections across the shard listeners, and every
// connection then lives on its shard's loop for its whole life
// (per-connection loop affinity — no socket ever migrates between threads).
//
// One shard (--loops 1) runs on the node's home loop: no thread, no
// cross-thread post. Its admitted batches call DlNode::submit directly and
// the delivery callback applies each CommitBatch in place. Both a
// dedicated thread and self-posts for a lone shard cost peak throughput
// (measured in docs/PERF.md, "--loops 1: one shard on the node loop").
//
// N >= 2 shards each own a net::EventLoop + thread:
//
//                       ┌─ shard 0: EventLoop ── Gateway ── Mempool ─┐
//   clients ──accept──▶ ├─ shard 1: EventLoop ── Gateway ── Mempool ─┤
//    (SO_REUSEPORT)     └─ ...                                       │
//                               admitted batches (EventLoop::post)   ▼
//                                              node loop: DlNode::submit
//                                 CommitBatch fan-out (EventLoop::post)
//                                              ◀ delivery callback
//
// Cross-thread traffic is batched in both directions: a shard posts one
// submit batch per drain to the node loop, and the node loop posts each
// delivered block to every shard as one shared CommitBatch: views of the
// transaction payloads plus the block bytes they point into. A shard hashes
// only the payloads whose fast key its mempool tracks.
//
// Exactly-once caveat: mempools are per-shard, so a client that reconnects
// onto a different shard and resubmits an in-flight payload is re-admitted
// there (the old shard's dedup record is invisible). The payload can then
// commit twice at the LEDGER level; the client-visible exactly-once
// contract still holds because DlClient drops commit notifications for
// unknown seqs. Single-shard deployments keep ledger-level dedup.
//
// Thread affinity: construct, start(), on_block_delivered() and shutdown()
// belong to the node loop's thread. The aggregate accessors are callable
// from any thread at any time: the underlying counters are relaxed atomics
// (obs::RelaxedU64), so a mid-run read is merely a point-in-time snapshot —
// the admin /metrics endpoint scrapes them live. After shutdown() they are
// exact.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/gateway.hpp"
#include "net/event_loop.hpp"

namespace dl::client {

class IngressShards {
 public:
  struct Options {
    int shards = 1;  // clamped to >= 1
    MempoolOptions mempool;
  };

  // Binds all shard listen sockets immediately (port 0: shard 0 picks the
  // port, the rest join it via SO_REUSEPORT). `home` is the loop the node
  // runs on; a lone shard runs there too.
  IngressShards(core::DlNode& node, net::EventLoop& home,
                const std::string& host, std::uint16_t port, Options opt);
  ~IngressShards();
  IngressShards(const IngressShards&) = delete;
  IngressShards& operator=(const IngressShards&) = delete;

  std::uint16_t listen_port() const { return listen_port_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }

  // Starts accepting clients; with N >= 2 shards, spawns one thread each.
  void start();

  // Node-loop delivery hook: hand the block's payloads to every shard as
  // one shared CommitBatch. Call from the delivery callback (it reads
  // DlNode::delivered_content()).
  void on_block_delivered(std::uint64_t at_epoch, const core::BlockKey& key,
                          const core::BlockView& block, double now);

  // Orderly shutdown: each shard says Goodbye to its clients; a shard with
  // its own thread then stops its loop and is joined. Idempotent.
  void shutdown();

  // Restart recovery: seed EVERY shard's committed ring (the kernel may
  // route a reconnecting client to any shard). Only callable before start()
  // — asserted; shard mempools are thread-confined once threads spawn.
  void seed_committed(const Hash& h, std::uint64_t epoch,
                      std::uint32_t proposer);

  // Totals across shards. Thread-safe and live: per-field relaxed snapshots
  // while the shard threads run, exact once shutdown() has joined them.
  Gateway::Stats aggregate_stats() const;
  MempoolStats aggregate_mempool_stats() const;

  // Shard i's own loop, for live EventLoop::stats() scraping (the stats
  // cells are thread-safe; the loop set is fixed at construction). Null
  // when the shard runs on the home loop.
  const net::EventLoop* shard_loop(int i) const {
    return shards_[static_cast<std::size_t>(i)].loop.get();
  }

 private:
  struct Shard {
    std::unique_ptr<net::EventLoop> loop;  // null: runs on the home loop
    std::unique_ptr<Gateway> gateway;
    std::thread thread;
  };

  core::DlNode& node_;
  net::EventLoop& home_;
  std::vector<Shard> shards_;
  std::uint16_t listen_port_ = 0;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace dl::client
