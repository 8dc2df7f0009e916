// Protocol flight recorder: a bounded ring of timestamped protocol events.
//
// DlNode records coarse protocol milestones (propose, chunk receipt, BA
// decide, deliver, catch-up) as it runs; the ring keeps the most recent
// `capacity` events so a wedged or misbehaving replica can be asked "what
// were you doing just now" without logging overhead proportional to run
// length. Timestamps come from `runtime::Env::now()` via the caller, so the
// same recording code works on the deterministic simulator (virtual time)
// and the real runtime (CLOCK_MONOTONIC seconds) — the dump is
// chrome://tracing / Perfetto JSON either way.
//
// record() is one array write, off the per-byte data path — protocol
// milestones happen at epoch/chunk frequency, not frame frequency. A
// recorder is affine to its replica's home loop: only that loop records
// into it or dumps it, so it holds no lock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/buffer_pool.hpp"

namespace dl::obs {

class FlightRecorder {
 public:
  enum class Ev : std::uint8_t {
    kPropose,        // own block handed to VID dispersal
    kVidChunkRx,     // coded chunk received (arg = source node)
    kVidComplete,    // an instance's dispersal completed locally
    kBaDecide,       // BA decided an instance (arg = decided value 0/1)
    kEpochClosed,    // all BA instances for the epoch output
    kDeliver,        // epoch's block batch delivered to the ledger
    kCatchUpRound,   // catch-up pull round started (arg = target epoch)
    kCatchUpInstall  // a missed epoch's block installed via catch-up
  };
  static const char* name(Ev e);

  struct Event {
    double t = 0.0;  // Env::now() seconds
    Ev kind = Ev::kPropose;
    std::uint32_t instance = 0;
    std::uint64_t epoch = 0;
    std::uint64_t arg = 0;
  };

  explicit FlightRecorder(std::size_t capacity = 1u << 14);

  void record(double t, Ev kind, std::uint64_t epoch,
              std::uint32_t instance = 0, std::uint64_t arg = 0);

  // Oldest-first copy of the retained window.
  std::vector<Event> events() const;
  std::uint64_t total_recorded() const { return total_; }
  // total_recorded - retained
  std::uint64_t dropped() const {
    return total_ < ring_.size() ? 0 : total_ - ring_.size();
  }
  std::size_t capacity() const { return ring_.size(); }

  // Chrome-trace JSON ({"traceEvents": [...]}, instant events, ts in
  // microseconds). `pid` labels the emitting node. Loadable in
  // chrome://tracing and Perfetto.
  void render_chrome_trace(net::ByteRope& out, int pid) const;
  std::string chrome_trace_json(int pid) const;

  // Writes the chrome-trace JSON to `path`; returns false on I/O error.
  bool dump_to_file(const std::string& path, int pid) const;

 private:
  std::vector<Event> ring_;
  std::uint64_t total_ = 0;  // monotone; ring slot = total_ % capacity
};

}  // namespace dl::obs
