#include "net/tcp_env.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/buffer_recycler.hpp"
#include "common/rng.hpp"
#include "net/socket_util.hpp"

namespace dl::net {

namespace {

constexpr std::size_t kMaxPendingAccepts = 64;
// A Hello is ~21 bytes; an accepted connection that buffers more than this
// without completing one is not a replica.
constexpr std::size_t kMaxPreAuthBytes = 4096;
// Scatter-gather width per sendmsg: each frame contributes at most two
// iovecs (prefix slab + body reference).
constexpr std::size_t kMaxIov = 64;

constexpr double kNever = std::numeric_limits<double>::infinity();

// High's weight against Low on a shaped link: the paper's T, and
// sim::NetworkConfig::weight_high's default.
constexpr std::size_t kHighWeight = 30;

}  // namespace

TcpEnv::TcpEnv(EventLoop& loop, ClusterConfig cfg, int self, Options opt)
    : loop_(loop), cfg_(std::move(cfg)), self_(self), opt_(opt) {
  if (self_ < 0 || self_ >= cfg_.n) {
    throw std::invalid_argument("TcpEnv: self out of range");
  }
  for (int i = 0; i < cfg_.n; ++i) {
    Peer& p = peers_.emplace_back();
    p.id = i;
    p.addr = cfg_.nodes[static_cast<std::size_t>(i)];
    p.dialer = i < self_;
    p.reader = FrameReader(opt_.max_frame_bytes);
  }
  setup_shapers();

  // Bind the listen socket now so a port of 0 resolves before start().
  const NodeAddr& me = cfg_.nodes[static_cast<std::size_t>(self_)];
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpEnv: socket() failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  if (!resolve_ipv4(me.host, me.port, addr)) {
    close(listen_fd_);
    throw std::runtime_error("TcpEnv: cannot resolve own address " + me.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      listen(listen_fd_, 64) != 0 || !set_nonblocking(listen_fd_)) {
    close(listen_fd_);
    throw std::runtime_error("TcpEnv: cannot listen on " + me.host + ":" +
                             std::to_string(me.port));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  listen_port_ = ntohs(bound.sin_port);
}

TcpEnv::~TcpEnv() {
  for (Peer& p : peers_) {
    if (p.fd >= 0) {
      if (started_) loop_.del_fd(p.fd);
      close(p.fd);
      p.fd = -1;
    }
    if (p.redial_timer != 0) loop_.cancel_timer(p.redial_timer);
    if (p.shape_timer != 0) loop_.cancel_timer(p.shape_timer);
  }
  for (auto& [fd, pa] : pending_) {
    if (pa.timer != 0) loop_.cancel_timer(pa.timer);
    loop_.del_fd(fd);
    close(fd);
  }
  if (listen_fd_ >= 0) {
    if (started_) loop_.del_fd(listen_fd_);
    close(listen_fd_);
  }
}

void TcpEnv::set_peer_port(int id, std::uint16_t port) {
  peer(id).addr.port = port;
}

LinkShaper::Stats TcpEnv::shaper_totals() const {
  LinkShaper::Stats total;
  for (const auto& sh : shapers_) {
    const LinkShaper::Stats s = sh->stats();
    total.shaped_bytes += s.shaped_bytes;
    total.lost_frames += s.lost_frames;
    total.lost_bytes += s.lost_bytes;
    total.throttle_waits += s.throttle_waits;
  }
  return total;
}

void TcpEnv::collect_shapers() {
  for (const Peer& p : peers_) {
    if (p.id == self_ || !p.shaper) continue;
    bool seen = false;
    for (const auto& sh : shapers_) {
      if (sh == p.shaper) {
        seen = true;
        break;
      }
    }
    if (!seen) shapers_.push_back(p.shaper);
  }
}

void TcpEnv::setup_shapers() {
  // The schedule origin is "process time now": a trace's first rate window
  // starts when the replica starts, on every node, matching the simulator
  // where traces start at sim time 0.
  const double t0 = loop_.now();
  if (opt_.adversary == WireAdversary::SlowDrip) {
    // Every peer gets its own crawl bucket: the drip rate is per connection,
    // so the adversary trickles to all peers simultaneously.
    for (Peer& p : peers_) {
      if (p.id == self_) continue;
      LinkShaper::Config c;
      c.schedule.rates = {opt_.slow_drip_bytes_per_sec};
      c.burst_bytes = LinkShaper::kDefaultQuantum;  // tight pacing, no burst
      c.seed = opt_.shaper_seed;
      p.shaper = std::make_shared<LinkShaper>(c, t0);
    }
    collect_shapers();
    return;
  }
  // [[link]] rules without a `to` model the node's aggregate egress pipe:
  // every peer matched by such a rule shares ONE bucket, like FluidLink.
  std::map<const LinkShapeRule*, std::shared_ptr<LinkShaper>> shared;
  for (Peer& p : peers_) {
    if (p.id == self_) continue;
    const LinkShapeRule* r = cfg_.match_link(self_, p.id);
    if (r == nullptr) continue;
    if (!r->trace_path.empty() && r->schedule.unlimited()) {
      throw std::invalid_argument(
          "TcpEnv: [[link]] trace \"" + r->trace_path +
          "\" was never resolved (use ClusterConfig::load/resolve_traces)");
    }
    LinkShaper::Config c;
    c.schedule = r->schedule;
    c.delay = r->delay_ms / 1000.0;
    c.jitter = r->jitter_ms / 1000.0;
    c.loss = static_cast<double>(r->loss_ppm) / 1e6;
    c.burst_bytes = r->burst_bytes;
    // Distinct but reproducible RNG streams per directed pair (per node for
    // a shared bucket — splitmix64 of the composed identifiers).
    std::uint64_t s = r->seed ^ (opt_.shaper_seed << 32) ^
                      (static_cast<std::uint64_t>(self_) << 16) ^
                      static_cast<std::uint64_t>(r->to >= 0 ? p.id + 1 : 0);
    c.seed = splitmix64(s);
    if (r->to >= 0) {
      p.shaper = std::make_shared<LinkShaper>(c, t0);
    } else {
      auto& slot = shared[r];
      if (!slot) slot = std::make_shared<LinkShaper>(c, t0);
      p.shaper = slot;
    }
  }
  collect_shapers();
}

void TcpEnv::start(runtime::Receiver& r) {
  if (started_) return;
  started_ = true;
  receiver_ = &r;  // published by the post below before any callback fires
  loop_.post([this] {
    loop_.add_fd(listen_fd_, EPOLLIN,
                 [this](std::uint32_t ev) { handle_listener(ev); });
    for (Peer& p : peers_) {
      if (p.dialer) dial(p);
    }
    if (receiver_ != nullptr) receiver_->start();
  });
}

// --- Env ---------------------------------------------------------------------

runtime::TimerId TcpEnv::at(double t, std::function<void()> fn) {
  return loop_.at(t, std::move(fn));
}

runtime::TimerId TcpEnv::after(double delay, std::function<void()> fn) {
  return loop_.after(delay, std::move(fn));
}

bool TcpEnv::cancel_timer(runtime::TimerId id) { return loop_.cancel_timer(id); }

TcpEnv::OutFrame TcpEnv::make_data_frame(Envelope&& env, std::uint64_t tag) {
  OutFrame f;
  f.header_len =
      static_cast<std::uint8_t>(encode_data_frame_header(env, f.header.data()));
  if (!env.body.empty()) {
    f.body = share_buffer(std::move(env.body));
  }
  f.tag = tag;
  return f;
}

void TcpEnv::send(int to, const Envelope& env, const runtime::SendOpts& opts) {
  send(to, Envelope(env), opts);
}

void TcpEnv::send(int to, Envelope&& env, const runtime::SendOpts& opts) {
  if (to == self_) {
    // Loopback hands the envelope over as is: no encoding, no copy. Posted
    // like every other delivery, so the receiver is never re-entered from
    // inside its own send path.
    loop_.post([this, env = std::move(env)] {
      if (receiver_ != nullptr) receiver_->on_receive_local(self_, env);
    });
    return;
  }
  enqueue_and_flush(peer(to), make_data_frame(std::move(env), opts.tag), opts);
}

void TcpEnv::broadcast(const Envelope& env, const runtime::SendOpts& opts) {
  broadcast(Envelope(env), opts);
}

void TcpEnv::broadcast(Envelope&& env, const runtime::SendOpts& opts) {
  // Encode once: loopback delivery needs the contiguous envelope anyway, and
  // every peer's queue entry then shares that same buffer behind a 5-byte
  // per-peer frame prefix — no per-peer body copies.
  auto env_bytes = share_buffer(env.encode());
  deliver_local(env_bytes);
  OutFrame proto;
  proto.header_len = kDataPayloadOffset;  // frame length + wire kind
  const auto payload_len = static_cast<std::uint32_t>(env_bytes->size() + 1);
  proto.header[0] = static_cast<std::uint8_t>(payload_len);
  proto.header[1] = static_cast<std::uint8_t>(payload_len >> 8);
  proto.header[2] = static_cast<std::uint8_t>(payload_len >> 16);
  proto.header[3] = static_cast<std::uint8_t>(payload_len >> 24);
  proto.header[4] = static_cast<std::uint8_t>(WireKind::Data);
  proto.body = std::move(env_bytes);
  proto.tag = opts.tag;
  for (Peer& p : peers_) {
    if (p.id == self_) continue;
    enqueue_and_flush(p, OutFrame(proto), opts);
  }
}

void TcpEnv::cancel_send(std::uint64_t tag) {
  if (tag == 0) return;
  for (Peer& p : peers_) {
    for (auto it = p.low.begin(); it != p.low.end();) {
      if (it->second.tag == tag) {
        p.stats.queued_bytes -= it->second.size();
        it = p.low.erase(it);
      } else {
        ++it;
      }
    }
    if (p.fd >= 0 && !p.connecting) update_interest(p);
  }
}

void TcpEnv::deliver_local(std::shared_ptr<const Bytes> env_bytes) {
  // Asynchronous like every other delivery: the receiver is never re-entered
  // from inside its own send path.
  loop_.post([this, env_bytes = std::move(env_bytes)] {
    if (receiver_ != nullptr) {
      receiver_->on_receive(self_, ByteView(*env_bytes));
    }
  });
}

// --- write path --------------------------------------------------------------

void TcpEnv::enqueue(Peer& p, OutFrame frame, const runtime::SendOpts& opts) {
  const std::size_t size = frame.size();
  if (opt_.adversary == WireAdversary::Mute) {
    // Mute-but-connected: the connection and Hello stay perfectly healthy
    // (the Hello never passes through enqueue), every Data frame dies here.
    ++p.stats.shaped_drops;
    p.stats.shaped_drop_bytes += size;
    return;
  }
  if (p.shaper && p.shaper->lose_frame(size)) {
    ++p.stats.shaped_drops;
    p.stats.shaped_drop_bytes += size;
    return;
  }
  if (size > opt_.max_frame_bytes + kFrameHeaderBytes) {
    // Never emit a frame every receiver is obliged to reject — that would
    // tear the connection down on each retry and livelock the pair.
    ++p.stats.dropped_frames;
    p.stats.dropped_bytes += size;
    return;
  }
  if (p.stats.queued_bytes + size > opt_.max_queue_bytes) {
    // Backpressure: the peer is slow or gone and its queue is full. Drop and
    // account — the protocol layers tolerate message loss.
    ++p.stats.dropped_frames;
    p.stats.dropped_bytes += size;
    return;
  }
  p.stats.queued_bytes += size;
  if (opts.cls == runtime::TrafficClass::High) {
    p.high.push_back(std::move(frame));
  } else {
    p.low.emplace(std::make_pair(opts.order, next_low_seq_++),
                  std::move(frame));
  }
}

void TcpEnv::enqueue_and_flush(Peer& p, OutFrame frame,
                               const runtime::SendOpts& opts) {
  enqueue(p, std::move(frame), opts);
  if (p.fd >= 0 && !p.connecting) flush_writes(p);
}

void TcpEnv::update_interest(Peer& p) {
  if (p.fd < 0) return;
  // EPOLLOUT only while the kernel has refused part of a frame: flush_writes
  // leaves the queues either empty or behind an inflight frame, and a shaped
  // peer's frames that are still serializing or propagating wait on the
  // shape timer instead (a writable socket would otherwise spin the loop).
  const bool want = p.connecting || p.has_inflight;
  const std::uint32_t events =
      EPOLLIN | (want ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (want == p.want_write) return;
  p.want_write = want;
  loop_.mod_fd(p.fd, events);
}

void TcpEnv::add_iov(const OutFrame& f, std::size_t off, iovec* iov,
                     std::size_t& n) {
  if (off < f.header_len) {
    iov[n].iov_base = const_cast<std::uint8_t*>(f.header.data()) + off;
    iov[n].iov_len = f.header_len - off;
    ++n;
    off = 0;
  } else {
    off -= f.header_len;
  }
  const std::size_t body_size = f.body ? f.body->size() : 0;
  if (off < body_size) {
    iov[n].iov_base = const_cast<std::uint8_t*>(f.body->data()) + off;
    iov[n].iov_len = body_size - off;
    ++n;
  }
}

bool TcpEnv::low_next(const Peer& p) {
  if (p.low.empty()) return false;
  if (p.high.empty()) return true;
  // A shaped link is shared between the classes as FluidLink shares it:
  // while both wait, Low gets one byte in kHighWeight + 1, so a
  // bandwidth-starved replica still retrieves. Unshaped peers keep strict
  // High-first order.
  return p.shaper != nullptr &&
         p.high_run >= kHighWeight * p.low.begin()->second.size();
}

TcpEnv::OutFrame* TcpEnv::queued_head(Peer& p) {
  if (low_next(p)) return &p.low.begin()->second;
  if (!p.high.empty()) return &p.high.front();
  return nullptr;
}

TcpEnv::OutFrame TcpEnv::pop_queued(Peer& p) {
  OutFrame f;
  if (low_next(p)) {
    f = std::move(p.low.begin()->second);
    p.low.erase(p.low.begin());
    p.high_run = 0;
  } else {
    f = std::move(p.high.front());
    p.high.pop_front();
    p.high_run = p.low.empty() ? 0 : p.high_run + f.size();
  }
  return f;
}

bool TcpEnv::next_inflight(Peer& p, double now) {
  if (p.shaper) {
    // Only frames that have finished propagating reach the kernel.
    if (p.wire.empty() || p.wire.front().first > now) return false;
    p.inflight = std::move(p.wire.front().second);
    p.wire.pop_front();
  } else {
    if (queued_head(p) == nullptr) return false;
    p.inflight = pop_queued(p);
  }
  p.has_inflight = true;
  p.inflight_off = 0;
  return true;
}

double TcpEnv::serialize(Peer& p, double now) {
  // The head frame is taken off the queues at its first instalment, so a
  // later High frame cannot preempt it and cancel_send cannot pull it back.
  for (;;) {
    OutFrame* f = p.has_paying ? &p.paying : queued_head(p);
    if (f == nullptr) return kNever;
    const std::size_t owed = f->size() - p.paid;
    const std::size_t got = p.shaper->take(now, owed);
    if (got == 0) {
      ++p.stats.shaper_waits;
      return p.shaper->next_release(now, owed);
    }
    if (!p.has_paying) {
      p.paying = pop_queued(p);
      p.has_paying = true;
    }
    p.paid += got;
    if (p.paid < p.paying.size()) continue;
    // An empty FIFO means every earlier frame has already arrived.
    const double after = p.wire.empty() ? now : p.wire.back().first;
    p.wire.emplace_back(p.shaper->arrival(now, after), std::move(p.paying));
    p.paid = 0;
    p.has_paying = false;
  }
}

void TcpEnv::flush_writes(Peer& p) {
  const double now = p.shaper ? loop_.now() : 0.0;
  const double pay_at = p.shaper ? serialize(p, now) : kNever;
  while (p.fd >= 0) {
    if (!p.has_inflight && !next_inflight(p, now)) break;
    // Gather the inflight remainder plus as many sendable frames as fit in
    // one sendmsg — consume_written pops them in exactly this order.
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    add_iov(p.inflight, p.inflight_off, iov, niov);
    if (p.shaper) {
      for (const auto& [arrives, f] : p.wire) {
        if (niov + 2 > kMaxIov || arrives > now) break;
        add_iov(f, 0, iov, niov);
      }
    } else {
      for (const OutFrame& f : p.high) {
        if (niov + 2 > kMaxIov) break;
        add_iov(f, 0, iov, niov);
      }
      for (const auto& [key, f] : p.low) {
        if (niov + 2 > kMaxIov) break;
        add_iov(f, 0, iov, niov);
      }
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE, not
    // as a process-killing SIGPIPE.
    const ssize_t n = ::sendmsg(p.fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      consume_written(p, static_cast<std::size_t>(n), now);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    disconnect(p, "write error");
    return;
  }
  if (p.shaper) {
    // Wake when the bucket can pay the next frame or the FIFO head arrives,
    // whichever is first; a refused write waits on EPOLLOUT instead.
    double wake = pay_at;
    if (!p.has_inflight && !p.wire.empty()) {
      wake = std::min(wake, p.wire.front().first);
    }
    if (wake < kNever) schedule_shape_wake(p, wake);
  }
  update_interest(p);
}

void TcpEnv::schedule_shape_wake(Peer& p, double when) {
  if (p.shape_timer != 0) loop_.cancel_timer(p.shape_timer);
  const int id = p.id;
  p.shape_timer = loop_.at(when, [this, id] {
    Peer& q = peer(id);
    q.shape_timer = 0;
    if (q.fd >= 0 && !q.connecting) flush_writes(q);
  });
}

void TcpEnv::consume_written(Peer& p, std::size_t n, double now) {
  // Pop order mirrors the gather order in flush_writes. Only the last
  // partially-written frame stays behind as the new inflight.
  while (n > 0) {
    if (!p.has_inflight) next_inflight(p, now);
    const std::size_t frame_size = p.inflight.size();
    const std::size_t remaining = frame_size - p.inflight_off;
    if (n >= remaining) {
      n -= remaining;
      ++p.stats.sent_frames;
      p.stats.sent_bytes += frame_size;
      p.stats.queued_bytes -= frame_size;
      p.has_inflight = false;
      p.inflight = OutFrame{};
    } else {
      p.inflight_off += n;
      n = 0;
    }
  }
}

// --- read path ---------------------------------------------------------------

bool TcpEnv::drain_frames(Peer& p) {
  ByteView fr;
  bool ok = true;
  while (p.fd >= 0 && p.reader.next_view(fr)) {
    WireFrame wf;
    if (!decode_wire(fr, wf) || wf.kind != WireKind::Data) {
      disconnect(p, "malformed frame");
      ok = false;
      break;
    }
    ++p.stats.recv_frames;
    p.stats.recv_bytes += fr.size();
    // The view into the reader's pooled buffer stays valid for the duration
    // of the callback (nothing feeds the reader until it returns).
    if (receiver_ != nullptr) receiver_->on_receive(p.id, wf.data);
  }
  if (ok && p.fd >= 0 && p.reader.failed()) {
    disconnect(p, "oversized frame");
    ok = false;
  }
  return ok && p.fd >= 0;
}

void TcpEnv::handle_readable(Peer& p) {
  while (p.fd >= 0) {
    // Zero-copy ingest: the reader pulls straight from the socket into its
    // pooled buffer; frames are then handed out as views.
    const ssize_t n = p.reader.fill_from(p.fd);
    if (n > 0) {
      if (!drain_frames(p)) return;
      continue;
    }
    if (n == 0) {
      disconnect(p, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    disconnect(p, "read error");  // includes EPROTO from a poisoned reader
    return;
  }
}

void TcpEnv::handle_peer_event(int id, std::uint32_t events) {
  Peer& p = peer(id);
  if (p.fd < 0) return;
  if (p.connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
      int err = 0;
      socklen_t len = sizeof err;
      getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        disconnect(p, "connect failed");
        return;
      }
      on_dial_connected(p);
    }
    return;
  }
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    disconnect(p, "socket error");
    return;
  }
  if ((events & EPOLLIN) != 0) {
    handle_readable(p);
    if (p.fd < 0) return;
  }
  if ((events & EPOLLOUT) != 0) flush_writes(p);
}

// --- connection lifecycle ----------------------------------------------------

void TcpEnv::disconnect(Peer& p, const char* /*why*/) {
  if (p.fd < 0) return;
  // A connection that proved itself (stayed up past one full backoff
  // period) earns an instant redial; one that died young — connect refused,
  // handshake rejected by the acceptor, immediate RST — keeps climbing the
  // exponential ladder, so a rejecting peer is not hammered 20x/second.
  const bool was_established = !p.connecting;
  if (was_established &&
      loop_.now() - p.established_at >= opt_.reconnect_max) {
    p.backoff = 0;
  }
  loop_.del_fd(p.fd);
  close(p.fd);
  p.fd = -1;
  p.connecting = false;
  p.want_write = false;
  if (p.shape_timer != 0) {
    loop_.cancel_timer(p.shape_timer);
    p.shape_timer = 0;
  }
  p.stats.connected = false;
  // The reader is NOT reset here: disconnect() can fire from inside this
  // peer's own drain_frames (a receiver callback sends, the send hits a
  // write error) while a frame view into the reader's buffer is still live.
  // Stale bytes are discarded at the next dial()/adoption instead.
  if (p.has_inflight) {
    // A partially-written frame cannot resume on a fresh connection.
    const std::size_t size = p.inflight.size();
    p.stats.queued_bytes -= size;
    ++p.stats.dropped_frames;
    p.stats.dropped_bytes += size;
    p.has_inflight = false;
    p.inflight = OutFrame{};
  }
  if (p.dialer) {
    ++p.stats.reconnects;
    schedule_dial(p);
  }
  // Acceptor side: wait for the dialer to come back.
}

void TcpEnv::schedule_dial(Peer& p) {
  p.backoff = p.backoff <= 0 ? opt_.reconnect_min
                             : std::min(p.backoff * 2, opt_.reconnect_max);
  const int id = p.id;
  p.redial_timer = loop_.after(p.backoff, [this, id] {
    peer(id).redial_timer = 0;
    dial(peer(id));
  });
}

void TcpEnv::dial(Peer& p) {
  if (p.fd >= 0) return;
  p.reader.reset();  // drop any bytes left over from a dead connection
  sockaddr_in addr{};
  if (!resolve_ipv4(p.addr.host, p.addr.port, addr)) {
    schedule_dial(p);
    return;
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0 || !set_nonblocking(fd)) {
    if (fd >= 0) close(fd);
    schedule_dial(p);
    return;
  }
  set_nodelay(fd);
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    schedule_dial(p);
    return;
  }
  p.fd = fd;
  p.connecting = rc != 0;
  p.want_write = true;
  const int id = p.id;
  loop_.add_fd(fd, EPOLLIN | EPOLLOUT, [this, id](std::uint32_t ev) {
    handle_peer_event(id, ev);
  });
  if (rc == 0) on_dial_connected(p);
}

void TcpEnv::on_dial_connected(Peer& p) {
  p.connecting = false;
  p.established_at = loop_.now();
  p.stats.connected = true;
  // The handshake frame goes out before anything queued while disconnected,
  // and outside any link shaping: it is the head of the new byte stream.
  // (disconnect() dropped any partially written frame.)
  const Bytes hello = encode_hello(static_cast<std::uint32_t>(self_));
  p.inflight = OutFrame{};
  p.inflight.header_len = static_cast<std::uint8_t>(hello.size());
  std::memcpy(p.inflight.header.data(), hello.data(), hello.size());
  p.inflight_off = 0;
  p.has_inflight = true;
  p.stats.queued_bytes += p.inflight.size();
  flush_writes(p);
}

void TcpEnv::handle_listener(std::uint32_t /*events*/) {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      break;
    }
    if (pending_.size() >= kMaxPendingAccepts) {
      close(fd);
      continue;
    }
    set_nodelay(fd);
    const std::uint64_t id = next_pending_id_++;
    // Handshake deadline: a socket that has not identified itself in time
    // may not keep holding a pending slot. The id guards against the fd
    // number having been closed and reused by the time the timer fires.
    const std::uint64_t timer =
        loop_.after(opt_.handshake_timeout, [this, fd, id] {
          auto it = pending_.find(fd);
          if (it != pending_.end() && it->second.id == id) {
            it->second.timer = 0;
            close_pending(fd);
          }
        });
    pending_.emplace(fd,
                     PendingAccept{fd, id, timer, FrameReader(opt_.max_frame_bytes)});
    loop_.add_fd(fd, EPOLLIN, [this, fd](std::uint32_t ev) {
      handle_pending_accept(fd, ev);
    });
  }
}

void TcpEnv::close_pending(int fd) {
  auto it = pending_.find(fd);
  if (it != pending_.end() && it->second.timer != 0) {
    loop_.cancel_timer(it->second.timer);
  }
  loop_.del_fd(fd);
  close(fd);
  pending_.erase(fd);
}

void TcpEnv::handle_pending_accept(int fd, std::uint32_t events) {
  auto it = pending_.find(fd);
  if (it == pending_.end()) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    close_pending(fd);
    return;
  }
  std::uint8_t buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      if (!it->second.reader.feed(ByteView(buf, static_cast<std::size_t>(n)))) {
        close_pending(fd);
        return;
      }
      Bytes fr;
      if (it->second.reader.next(fr)) {
        // First frame must identify a larger-id peer (they dial us).
        WireFrame wf;
        if (!decode_wire(fr, wf) || wf.kind != WireKind::Hello ||
            wf.hello_node <= static_cast<std::uint32_t>(self_) ||
            wf.hello_node >= static_cast<std::uint32_t>(cfg_.n)) {
          close_pending(fd);
          return;
        }
        if (it->second.timer != 0) loop_.cancel_timer(it->second.timer);
        FrameReader reader = std::move(it->second.reader);
        pending_.erase(it);
        // Swap the pending-accept handler for the peer handler.
        loop_.del_fd(fd);
        adopt_accepted(fd, static_cast<int>(wf.hello_node), std::move(reader));
        return;
      }
      if (it->second.reader.buffered_bytes() > kMaxPreAuthBytes) {
        // Streaming a large declared frame instead of a Hello: not a
        // replica, and not allowed to occupy pre-auth memory.
        close_pending(fd);
        return;
      }
      continue;
    }
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      close_pending(fd);
      return;
    }
    if (errno == EINTR) continue;
    break;  // EAGAIN: wait for more bytes
  }
}

void TcpEnv::adopt_accepted(int fd, int peer_id, FrameReader&& reader) {
  Peer& p = peer(peer_id);
  // A fresh connection replaces a stale one: the dialer only reconnects
  // when it saw a failure we may not have noticed yet.
  if (p.fd >= 0) disconnect(p, "replaced by new connection");
  p.fd = fd;
  p.connecting = false;
  p.want_write = false;
  p.stats.connected = true;
  p.reader = std::move(reader);
  loop_.add_fd(fd, EPOLLIN, [this, peer_id](std::uint32_t ev) {
    handle_peer_event(peer_id, ev);
  });
  // Frames that arrived glued to the Hello are already buffered; process
  // them, then flush anything queued for this peer while it was away.
  if (drain_frames(p)) flush_writes(p);
}

// --- introspection -----------------------------------------------------------

int TcpEnv::connected_peers() const {
  int count = 0;
  for (const Peer& p : peers_) {
    if (p.id != self_ && p.stats.connected) ++count;
  }
  return count;
}

void TcpEnv::drop_connection_for_test(int id) { disconnect(peer(id), "test"); }

}  // namespace dl::net
