// TcpEnv — the real-socket backend of runtime::Env.
//
// One TcpEnv per replica (several share a loop in in-process tests): it
// owns a listening socket plus one TCP connection per peer. Connection
// topology is deterministic: node i DIALS every peer with a smaller id and
// ACCEPTS from every peer with a larger id, so each unordered pair shares
// exactly one connection and two replicas never race to create duplicates.
// The dialing side sends a Hello frame identifying itself; both directions
// then carry Data frames (length-prefixed protocol envelopes, net/frame.hpp).
//
// Zero-copy data plane: an outbound envelope is never serialized into a
// contiguous frame. The fixed prefix (frame length, wire kind, envelope
// header) is written into a small slab inside the queue entry and the body
// bytes are referenced via shared_ptr; flush gathers both straight into
// sendmsg. Inbound, FrameReader reads socket bytes directly into a pooled
// buffer and hands out payload views — the only copy on the receive path is
// the kernel's.
//
// Every peer connection runs on the home loop: socket I/O, queues, readers,
// redial and shaping timers all multiplex inline with the Receiver
// callbacks, so an inbound frame reaches the Receiver as a view into the
// reader's buffer. Everything a TcpEnv owns, its counters included, is
// home-loop-affine: no lock and no atomic anywhere.
//
// Delivery model per peer, mirroring the simulator's FluidLink scheduling:
// High-class frames (dispersal + agreement) drain before Low-class frames
// (retrieval), and Low frames drain in (order, enqueue-seq) order with
// O(1)-amortized cancellation by tag — the paper's prioritization (§5) and
// cancel-on-decode (§6.3) on a real socket. On a shaped peer, as on
// FluidLink, the priority is a 30:1 weight rather than strict: while both
// classes wait, Low gets one byte in 31.
//
// WAN emulation ([[link]]): a shaped peer's frames pass two stages before
// the kernel sees them, as on FluidLink. Serialize: the head of the queues
// above leaves only once the LinkShaper's token bucket has paid for all of
// its bytes. Propagate: it then waits in a per-peer FIFO until its arrival
// time (paid-at + delay + jitter, monotone per peer). A frame in the FIFO is
// on the wire — cancel_send no longer reaches it — and never delays the
// serialization of frames behind it. Unshaped peers skip both stages.
//
// Fault handling: a broken or garbled connection is torn down; the dialing
// side redials with exponential backoff (the accepting side simply waits).
// Frames already handed to the kernel are gone — the protocols above are
// asynchronous state machines that keep making progress from whichever
// messages do arrive, and retrieval re-requests make delivery self-healing.
// Per-peer send queues are byte-bounded: once a slow/absent peer's queue is
// full, further frames to it are counted and dropped instead of exhausting
// memory (backpressure accounting, surfaced via peer_stats()).
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/cluster_config.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/shaper.hpp"
#include "runtime/env.hpp"

namespace dl::net {

// Wire-level deviations a real process can exhibit (dlnoded --adversary).
// Both keep the connection and Hello handshake fully honest — the failure is
// in the Data-frame stream, which is the hard case for the protocol layer.
enum class WireAdversary : std::uint8_t {
  None,
  Mute,      // "mute-but-connected": every outbound Data frame silently dies
  SlowDrip,  // all egress forced through a constant-rate crawl shaper
};

class TcpEnv final : public runtime::Env {
 public:
  struct Options {
    std::size_t max_queue_bytes = 64u * 1024 * 1024;  // per peer
    std::size_t max_frame_bytes = kMaxFrameBytes;
    double reconnect_min = 0.05;  // seconds, doubles per failure
    double reconnect_max = 2.0;
    // An accepted connection must complete its Hello within this window
    // (and within a small byte budget) or it is closed — unauthenticated
    // sockets may not hold pending-accept slots or memory indefinitely.
    double handshake_timeout = 5.0;
    // Wire-level misbehavior injection (tests / dlnoded --adversary). An
    // adversary overrides any [[link]] shaping from the cluster config.
    WireAdversary adversary = WireAdversary::None;
    double slow_drip_bytes_per_sec = 4096;  // SlowDrip crawl rate
    // Mixed into per-link loss/jitter RNG streams so two runs (or two nodes)
    // draw independent but reproducible sequences.
    std::uint64_t shaper_seed = 1;
  };

  // Binds the listen socket immediately (so `port` may be 0 and the actual
  // port read back via listen_port() before the cluster starts), but does
  // not touch any loop until start().
  TcpEnv(EventLoop& loop, ClusterConfig cfg, int self, Options opt);
  TcpEnv(EventLoop& loop, ClusterConfig cfg, int self)
      : TcpEnv(loop, std::move(cfg), self, Options()) {}
  ~TcpEnv() override;

  std::uint16_t listen_port() const { return listen_port_; }
  // Updates a peer's port before start() (port-0 discovery in tests).
  void set_peer_port(int id, std::uint16_t port);

  // Injects the Receiver and posts one home-loop task that registers the
  // listener, begins dialing and calls the Receiver's start(). Call once,
  // before or while the home loop runs. All Receiver callbacks fire on the
  // home loop.
  void start(runtime::Receiver& r);

  // --- runtime::Env -------------------------------------------------------
  int local_id() const override { return self_; }
  int cluster_size() const override { return cfg_.n; }
  double now() const override { return loop_.now(); }
  runtime::TimerId at(double t, std::function<void()> fn) override;
  runtime::TimerId after(double delay, std::function<void()> fn) override;
  bool cancel_timer(runtime::TimerId id) override;
  void send(int to, const Envelope& env, const runtime::SendOpts& opts) override;
  void broadcast(const Envelope& env, const runtime::SendOpts& opts) override;
  // Zero-copy variants: the envelope body is stolen and referenced by the
  // send queue(s), never copied into a frame.
  void send(int to, Envelope&& env, const runtime::SendOpts& opts) override;
  void broadcast(Envelope&& env, const runtime::SendOpts& opts) override;
  void cancel_send(std::uint64_t tag) override;
  void defer(std::function<void()> fn) override { loop_.post(std::move(fn)); }

  // --- backpressure / health accounting -----------------------------------
  struct PeerStats {
    bool connected = false;
    std::size_t queued_bytes = 0;
    std::uint64_t sent_frames = 0;
    std::uint64_t sent_bytes = 0;
    std::uint64_t recv_frames = 0;
    std::uint64_t recv_bytes = 0;
    std::uint64_t dropped_frames = 0;  // rejected by the queue cap
    std::uint64_t dropped_bytes = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t shaped_drops = 0;   // frames killed by loss/mute injection
    std::uint64_t shaped_drop_bytes = 0;
    std::uint64_t shaper_waits = 0;   // drain pauses waiting on the bucket
  };
  PeerStats peer_stats(int id) const { return peer(id).stats; }
  int connected_peers() const;

  // Aggregate egress-shaper stats across every distinct bucket (peers
  // sharing one [[link]] bucket are counted once). All-zero when the node is
  // unshaped.
  LinkShaper::Stats shaper_totals() const;
  int shaper_count() const { return static_cast<int>(shapers_.size()); }

  // Test hook: tears down the connection to `id` (if any) as if the network
  // broke it; the dialing side's backoff machinery must then restore it.
  void drop_connection_for_test(int id);

 private:
  // One queued wire frame: the fixed prefix lives inline, the body (if any)
  // is shared with the protocol layer / other peers' queues. Copyable so a
  // broadcast clones the 32-byte prefix while sharing the body.
  struct OutFrame {
    // Fits the largest prefix: Data frame header (22) or a whole Hello (17).
    std::array<std::uint8_t, 24> header{};
    std::uint8_t header_len = 0;
    std::shared_ptr<const Bytes> body;
    std::uint64_t tag = 0;

    std::size_t size() const {
      return header_len + (body ? body->size() : 0);
    }
  };

  // All mutable fields home-loop-affine.
  struct Peer {
    int id = -1;
    NodeAddr addr;
    bool dialer = false;  // we initiate (id < self)
    int fd = -1;
    bool connecting = false;  // nonblocking connect in flight
    bool want_write = false;
    FrameReader reader;
    // Queues: High drains before Low; Low ordered by (order, seq).
    std::deque<OutFrame> high;
    std::map<std::pair<std::uint64_t, std::uint64_t>, OutFrame> low;
    OutFrame inflight;          // partially written head frame
    std::size_t inflight_off = 0;
    bool has_inflight = false;
    // WAN emulation stages (shaped peers only). `paying` is the frame being
    // serialized, `paid` of its bytes covered by the bucket so far; `wire`
    // holds serialized frames in arrival order, waiting out their delay.
    OutFrame paying;
    std::size_t paid = 0;
    bool has_paying = false;
    std::deque<std::pair<double, OutFrame>> wire;  // (arrival time, frame)
    double backoff = 0;         // current redial delay
    double established_at = 0;  // when the dialed connection came up
    std::uint64_t redial_timer = 0;
    // WAN emulation (null = unshaped, the fast path). Per-peer when the
    // matching [[link]] rule names a destination; shared across this node's
    // peers (one aggregate egress bucket, like FluidLink) when it does not.
    std::shared_ptr<LinkShaper> shaper;
    std::uint64_t shape_timer = 0;  // pending drain wake, home-loop timer
    // High bytes serialized since the last Low frame while Low waited.
    std::size_t high_run = 0;
    PeerStats stats;
  };

  // An accepted connection whose Hello has not arrived yet.
  struct PendingAccept {
    int fd = -1;
    std::uint64_t id = 0;     // guards the timeout against fd-number reuse
    std::uint64_t timer = 0;  // handshake deadline
    FrameReader reader;
  };

  Peer& peer(int id) { return peers_[static_cast<std::size_t>(id)]; }
  const Peer& peer(int id) const { return peers_[static_cast<std::size_t>(id)]; }

  static OutFrame make_data_frame(Envelope&& env, std::uint64_t tag);
  static void add_iov(const OutFrame& f, std::size_t off, iovec* iov,
                      std::size_t& n);

  void setup_shapers();
  void collect_shapers();  // dedups peer buckets into shapers_
  void schedule_shape_wake(Peer& p, double when);
  void enqueue(Peer& p, OutFrame frame, const runtime::SendOpts& opts);
  void enqueue_and_flush(Peer& p, OutFrame frame, const runtime::SendOpts& opts);
  void deliver_local(std::shared_ptr<const Bytes> env_bytes);
  void update_interest(Peer& p);
  // Whether the next queued frame is the Low head: always when High is
  // empty; on a shaped peer also once High has had its share (see .cpp).
  static bool low_next(const Peer& p);
  OutFrame* queued_head(Peer& p);  // next frame by priority, or null
  OutFrame pop_queued(Peer& p);
  // Moves the next frame due at the kernel into `inflight`; false if none.
  bool next_inflight(Peer& p, double now);
  // Shaped peers: pays queued frames through the bucket onto `wire`.
  // Returns when the bucket can pay the next one (+inf if none waits).
  double serialize(Peer& p, double now);
  void flush_writes(Peer& p);
  void consume_written(Peer& p, std::size_t n, double now);
  bool drain_frames(Peer& p);  // false once the connection was torn down
  void handle_readable(Peer& p);
  void handle_peer_event(int id, std::uint32_t events);
  void disconnect(Peer& p, const char* why);
  void schedule_dial(Peer& p);
  void dial(Peer& p);
  void on_dial_connected(Peer& p);
  void handle_listener(std::uint32_t events);
  void handle_pending_accept(int fd, std::uint32_t events);
  void adopt_accepted(int fd, int peer_id, FrameReader&& reader);
  void close_pending(int fd);

  EventLoop& loop_;  // home loop: peer sockets, Receiver callbacks, timers
  ClusterConfig cfg_;
  int self_;
  Options opt_;
  runtime::Receiver* receiver_ = nullptr;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  bool started_ = false;
  std::uint64_t next_low_seq_ = 0;
  std::uint64_t next_pending_id_ = 1;
  // deque: peers are built in place once and never move.
  std::deque<Peer> peers_;  // indexed by id; entry self_ unused
  // Distinct shaper buckets, deduped at setup_shapers() time; immutable
  // afterwards.
  std::vector<std::shared_ptr<LinkShaper>> shapers_;
  std::map<int, PendingAccept> pending_;  // fd -> state
};

}  // namespace dl::net
