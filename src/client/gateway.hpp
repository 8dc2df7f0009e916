// Gateway — the node-side server of the client ingress plane.
//
// Listens on the node's `client_port` (net::ClusterConfig) and turns
// external SubmitTx frames into mempool admissions and node submissions:
//
//   client ──SubmitTx──▶ Mempool.admit ──pump──▶ Sink.submit ──▶ blocks
//          ◀──TxAck────            (watermarked)
//          ◀──TxCommitted── on_commit_batch (hash-matched per tx)
//
// Threading: one Gateway is affine to ONE net::EventLoop — every method
// below must run on that loop's thread (tracked_gauge() excepted). A
// Gateway is one shard of client::IngressShards, which owns the wiring: a
// lone shard runs on the node's own loop and its Sink calls DlNode::submit
// in place; with N >= 2 shards each owns a loop + thread and the Sink posts
// to the node loop. Every gateway binds with SO_REUSEPORT, so the shards
// share one listen port and the kernel spreads accepted connections across
// them (a connection then lives on its shard's loop for life).
//
// Hardening mirrors the replica transport: accepted sockets must complete a
// ClientHello within a deadline and a small pre-auth byte budget; frames are
// length-checked before buffering; a malformed or oversized frame poisons
// the connection (dropped, never UB). Per-client write queues are byte-
// bounded — a client that stops reading its acks is disconnected rather
// than allowed to pin node memory. Writes are batched: frames queue per
// connection and hit send() once per drained read batch / commit batch, not
// once per frame.
//
// Clients identify themselves with a session nonce (net::ClientHello). A
// reconnecting client presents the same nonce and adopts its predecessor's
// identity, so TxCommitted notifications for transactions admitted on the
// old connection reach the new one; commits for clients that never return
// are counted and dropped. (Sharded caveat: a reconnect may land on a
// DIFFERENT shard, whose mempool has no record of the old shard's in-flight
// payloads. Resubmissions then re-commit the payload at the ledger level —
// but the client-visible exactly-once contract still holds, because
// DlClient dedups commit notifications by seq.)
//
// The pump: admitted payloads do NOT go straight into the node's unbounded
// input queue. They sit in the mempool (whose caps implement backpressure)
// and are drained toward the node only while the node's input queue is
// below a watermark — on admission, after every delivered block, and on a
// slow refill timer.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/mempool.hpp"
#include "dl/block.hpp"
#include "dl/node.hpp"
#include "net/cluster_config.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "obs/relaxed.hpp"

namespace dl::client {

// One delivered block's commit work, prepared once on the node loop and
// fanned out to every gateway shard. `tx_hashes` (sha256 of each transaction
// payload, in block order) is immutable and shared — shards only look the
// hashes up in their own mempools.
struct CommitBatch {
  std::uint64_t at_epoch = 0;
  std::uint32_t proposer = 0;
  double delivered_at = 0;              // node-clock delivery stamp
  core::OwnBlockStages stages;          // zeros when not an own proposal
  std::shared_ptr<const std::vector<Hash>> tx_hashes;
};

class Gateway {
 public:
  // Where admitted transactions go. Both hooks are invoked on the gateway's
  // loop; `submit` must deliver the batch to the node (directly on the
  // node's loop, or via a cross-thread post), `queue_bytes` must be safe to
  // call from this thread (DlNode::input_queue_bytes is an atomic gauge).
  // The pump stops while the node's queue holds 2 x max_block_bytes.
  struct Sink {
    std::function<void(std::vector<Bytes>)> submit;
    std::function<std::size_t()> queue_bytes;
    std::size_t max_block_bytes = 2'000'000;  // watermark derivation
  };

  // Relaxed-atomic cells: written on the gateway's loop, readable live from
  // the metrics plane (see obs/relaxed.hpp for snapshot semantics).
  struct Stats {
    obs::RelaxedU64 accepted;          // sockets past ClientHello
    obs::RelaxedU64 active;            // currently connected clients
    obs::RelaxedU64 submits;           // SubmitTx frames received
    obs::RelaxedU64 commits_notified;  // TxCommitted frames queued
    obs::RelaxedU64 commits_clientless;  // owner gone, notify dropped
    obs::RelaxedU64 disconnects_slow;    // write-queue cap exceeded
    obs::RelaxedU64 disconnects_bad;     // malformed/oversized frames
  };

  // Binds the listen socket immediately (port may be 0: read the actual
  // port back via listen_port()); registers with the loop in start().
  Gateway(net::EventLoop& loop, Sink sink, const std::string& host,
          std::uint16_t port, MempoolOptions mempool);
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  std::uint16_t listen_port() const { return listen_port_; }
  void start();

  // Delivery hook: applies a prepared batch — match every hash against
  // this shard's mempool, notify owning clients (with the stage breakdown),
  // refill the node. Runs on the gateway's loop.
  void on_commit_batch(const CommitBatch& batch);

  // Tracked-transaction gauge, readable from ANY thread (relaxed atomic):
  // the node loop sums the shards' gauges to skip per-transaction hashing
  // of delivered blocks while no client awaits a commit.
  std::size_t tracked_gauge() const {
    return tracked_gauge_.load(std::memory_order_relaxed);
  }

  // Graceful shutdown: stop accepting, send each client a Goodbye, flush
  // what the sockets will take synchronously, close everything.
  void shutdown();

  Mempool& mempool() { return mempool_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t nonce = 0;
    net::FrameReader reader;
    // Outbound frames are encoded in place into pooled chunks and drained
    // with gather-writes — steady-state ack traffic allocates nothing.
    net::ByteRope out;
    bool want_write = false;
  };
  struct PendingAccept {
    int fd = -1;
    std::uint64_t id = 0;
    std::uint64_t timer = 0;
    net::FrameReader reader;
  };

  void pump();
  void drain_into_node();
  void handle_listener(std::uint32_t events);
  void handle_pending(int fd, std::uint32_t events);
  void close_pending(int fd);
  void adopt(int fd, std::uint64_t nonce, net::FrameReader&& reader);
  void handle_client_event(std::uint64_t nonce, std::uint32_t events);
  void handle_readable(Conn& c);
  bool drain_frames(Conn& c);  // false once the connection was closed
  void handle_submit(Conn& c, const net::WireFrame& wf);
  // Pre-write queue-cap check: false means the cap was hit and the client
  // has been disconnected. On true the caller encodes straight into c.out
  // (no syscall; callers batch via flush_writes).
  bool ensure_queue_space(Conn& c, std::size_t frame_bytes);
  void flush_writes(Conn& c);
  void update_interest(Conn& c);
  void close_client(Conn& c);
  void update_tracked_gauge() {
    tracked_gauge_.store(mempool_.tracked_txs(), std::memory_order_relaxed);
  }

  net::EventLoop& loop_;
  Sink sink_;
  Mempool mempool_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  bool started_ = false;
  bool shut_down_ = false;
  std::size_t watermark_ = 0;
  std::uint64_t pump_timer_ = 0;
  std::uint64_t next_pending_id_ = 1;
  std::map<int, PendingAccept> pending_;      // fd → pre-auth state
  std::map<std::uint64_t, Conn> clients_;     // nonce → connection
  std::atomic<std::size_t> tracked_gauge_{0};
  Stats stats_;
};

}  // namespace dl::client
