// WAN link shaping for the real TCP runtime.
//
// A LinkShaper paces a node's egress with a token bucket whose fill rate
// follows a piecewise-constant schedule — the exact semantics of the
// simulator's sim::Trace, so the same rate trace can drive a FluidLink in
// the simulator and a TcpEnv in a real deployment (the cross-validation
// tests compare the two). A frame that the bucket has paid for then waits
// out a fixed one-way delay plus uniform jitter; Bernoulli frame loss rounds
// out classic schedule-driven link emulation (cf. the NS-2 tutorial
// exemplar: queue, then transmission, then propagation).
//
// One shaper instance is typically *shared* across every peer of a TcpEnv
// (modelling the node's aggregate egress pipe, like FluidLink's per-node
// egress). Like the TcpEnv that drives it, a shaper is home-loop-affine.
// The unshaped path (no [[link]] config) is a null-pointer check in TcpEnv
// and never reaches this file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace dl::net {

// Piecewise-constant bandwidth schedule in bytes/second. `rates[i]` holds on
// [i*step, (i+1)*step); the last entry holds forever; an empty `rates` means
// "unlimited" (the shaper still applies delay/jitter/loss). This mirrors
// sim::Trace exactly, including the minimum-rate floor.
struct RateSchedule {
  std::vector<double> rates;
  double step = 1.0;  // seconds per entry

  static constexpr double kMinRate = 1.0;  // bytes/sec floor (matches sim::Trace)

  bool unlimited() const { return rates.empty(); }
  // Rate at absolute time t (t < 0 clamps to the first entry).
  double rate_at(double t) const;
  // Absolute time of the next rate change strictly after t, or +inf.
  double next_change_after(double t) const;
  double mean_rate() const;
};

// Parses a comma-separated rate list ("400000,100000,400000", bytes/sec).
// Rejects empty entries, non-numeric text, and non-positive rates.
std::optional<std::vector<double>> parse_rate_list(std::string_view text,
                                                   std::string* err);

// Loads a bandwidth trace file usable by both backends:
//   # comment and blank lines are skipped
//   step_ms N      (optional directive, default 1000; must precede rates)
//   <bytes/sec>    one rate per line
// Returns std::nullopt and sets *err (with a line number) on malformed input.
std::optional<RateSchedule> load_rate_trace(const std::string& path,
                                            std::string* err);

// One direction of a WAN link, modelled the way the simulator's FluidLink
// (and the classic NS-2 link) does it: a frame is first *serialized* at the
// schedule's rate, then *propagates* for the fixed delay plus jitter. Frames
// that are propagating never hold up the serialization of later ones.
//
// Usage per outbound connection (see TcpEnv::serialize):
//   size_t got = shaper->take(now, owed);       // pay for the head frame
//   if (got == 0) wake at shaper->next_release(now, owed);
//   once the frame is paid in full:
//     release = shaper->arrival(now, prev_release);   // hand to the kernel then
// take() reserves the tokens it grants. A frame larger than the bucket is
// paid in several take() instalments.
class LinkShaper {
 public:
  struct Config {
    RateSchedule schedule;        // empty = unlimited rate
    double delay = 0.0;           // seconds of fixed one-way delay
    double jitter = 0.0;          // uniform extra delay in [0, jitter)
    double loss = 0.0;            // per-frame drop probability in [0, 1)
    std::size_t burst_bytes = 0;  // bucket depth; 0 = auto (~20ms of mean rate)
    std::uint64_t seed = 1;       // jitter/loss RNG seed
  };

  struct Stats {
    std::uint64_t shaped_bytes = 0;    // bytes granted through the bucket
    std::uint64_t lost_frames = 0;     // frames dropped by the loss process
    std::uint64_t lost_bytes = 0;
    std::uint64_t throttle_waits = 0;  // take() calls that returned 0
  };

  // `now` anchors the schedule: rate_at(t - origin) with origin = now, so a
  // shaper built at process start consumes the trace from its beginning.
  LinkShaper(const Config& cfg, double now);

  // Stage 1, serialization. Reserves up to `want` tokens available at `now`.
  // Returns 0 (and counts a throttle wait) when fewer than min(want, quantum)
  // tokens are available — sub-quantum grants would degrade into per-byte
  // instalments.
  std::size_t take(double now, std::size_t want);

  // Earliest time at which take(t, want) can succeed. Integrates the
  // piecewise schedule across rate boundaries. Returns `now` if tokens are
  // already available, +inf on a pathological zero rate (cannot happen with
  // the kMinRate floor).
  double next_release(double now, std::size_t want);

  // Stage 2, propagation. When a frame whose last byte was paid at `paid_at`
  // reaches the far end: paid_at + delay_draw(), but never before `after`
  // (the previous frame on the same connection), so byte order survives
  // jitter.
  double arrival(double paid_at, double after);

  // Per-frame delay sample: delay + jitter * U[0,1).
  double delay_draw();

  // Per-frame Bernoulli loss; records the frame in the stats when dropped.
  bool lose_frame(std::size_t frame_bytes);

  bool unlimited_rate() const { return cfg_.schedule.unlimited(); }
  bool has_loss() const { return cfg_.loss > 0; }
  std::size_t quantum() const { return quantum_; }
  std::size_t burst() const { return burst_; }

  Stats stats() const { return stats_; }

  static constexpr std::size_t kDefaultQuantum = 1024;

 private:
  void refill(double now);

  const Config cfg_;
  std::size_t burst_ = 0;
  std::size_t quantum_ = kDefaultQuantum;
  double origin_ = 0.0;  // schedule time zero (construction time)

  double tokens_ = 0.0;
  double last_refill_ = 0.0;  // absolute time
  Rng rng_;
  Stats stats_;
};

}  // namespace dl::net
