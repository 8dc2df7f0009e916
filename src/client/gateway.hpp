// Gateway — the node-side server of the client ingress plane.
//
// Listens on the node's `client_port` (net::ClusterConfig) and turns
// external SubmitTx frames into mempool admissions and node submissions:
//
//   client ──SubmitTx──▶ Mempool.admit ──pump──▶ Sink.submit ──▶ blocks
//          ◀──TxAck────            (watermarked)
//          ◀──TxCommitted── on_commit_batch (hash-matched per tx)
//
// Threading: a Gateway is affine to ONE net::EventLoop — every method
// below must run on that loop's thread. app::Replica runs its one gateway
// on the node's own loop: the Sink calls DlNode::submit in place, and the
// delivery callback hands each block to on_commit_batch in place. The
// listen socket is exclusive: a second gateway on a bound port fails to
// bind.
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
// are counted and dropped.
//
// The pump: admitted payloads do NOT go straight into the node's unbounded
// input queue. They sit in the mempool (whose caps implement backpressure)
// and are drained toward the node only while the node's input queue is
// below a watermark — on admission, after every delivered block, and on a
// slow refill timer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "client/mempool.hpp"
#include "dl/block.hpp"
#include "dl/node.hpp"
#include "net/cluster_config.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"

namespace dl::client {

// One delivered block's commit work. `payloads` views each transaction
// payload, in block order, inside the delivered bytes, which stay alive for
// the on_commit_batch call.
struct CommitBatch {
  std::uint64_t at_epoch = 0;
  std::uint32_t proposer = 0;
  double delivered_at = 0;              // node-clock delivery stamp
  core::OwnBlockStages stages;          // zeros when not an own proposal
  std::vector<ByteView> payloads;
};

class Gateway {
 public:
  // Where admitted transactions go. Both hooks are invoked on the gateway's
  // loop: `submit` hands a batch to the node, `queue_bytes` reads the
  // node's input queue. The pump stops while the node's queue holds
  // 2 x max_block_bytes.
  struct Sink {
    std::function<void(std::vector<Bytes>)> submit;
    std::function<std::size_t()> queue_bytes;
    std::size_t max_block_bytes = 2'000'000;  // watermark derivation
  };

  struct Stats {
    std::uint64_t accepted = 0;            // sockets past ClientHello
    std::uint64_t active = 0;              // currently connected clients
    std::uint64_t submits = 0;             // SubmitTx frames received
    std::uint64_t commits_notified = 0;    // TxCommitted frames queued
    std::uint64_t commits_clientless = 0;  // owner gone, notify dropped
    std::uint64_t disconnects_slow = 0;    // write-queue cap exceeded
    std::uint64_t disconnects_bad = 0;     // malformed/oversized frames
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

  // Delivery hook: applies a prepared batch — match every payload against
  // the mempool, notify owning clients (with the stage breakdown), refill
  // the node. Runs on the gateway's loop; a no-op after shutdown().
  void on_commit_batch(const CommitBatch& batch);

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
  Stats stats_;
};

}  // namespace dl::client
