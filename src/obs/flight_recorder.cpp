#include "obs/flight_recorder.hpp"

#include <cstdio>

#include "obs/registry.hpp"

namespace dl::obs {

const char* FlightRecorder::name(Ev e) {
  switch (e) {
    case Ev::kPropose:
      return "propose";
    case Ev::kVidChunkRx:
      return "vid_chunk_rx";
    case Ev::kVidComplete:
      return "vid_complete";
    case Ev::kBaDecide:
      return "ba_decide";
    case Ev::kEpochClosed:
      return "epoch_closed";
    case Ev::kDeliver:
      return "deliver";
    case Ev::kCatchUpRound:
      return "catch_up_round";
    case Ev::kCatchUpInstall:
      return "catch_up_install";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(double t, Ev kind, std::uint64_t epoch,
                            std::uint32_t instance, std::uint64_t arg) {
  Event& e = ring_[total_ % ring_.size()];
  e.t = t;
  e.kind = kind;
  e.instance = instance;
  e.epoch = epoch;
  e.arg = arg;
  ++total_;
}

std::vector<FlightRecorder::Event> FlightRecorder::events() const {
  const std::size_t cap = ring_.size();
  const std::size_t n = total_ < cap ? static_cast<std::size_t>(total_) : cap;
  std::vector<Event> out;
  out.reserve(n);
  const std::uint64_t start = total_ - n;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % cap]);
  }
  return out;
}

void FlightRecorder::render_chrome_trace(net::ByteRope& out, int pid) const {
  const std::vector<Event> evs = events();
  RopeWriter w(out);
  w.text("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool first = true;
  for (const Event& e : evs) {
    w.text(first ? "\n" : ",\n");
    first = false;
    w.text("{\"name\": \"");
    w.text(name(e.kind));
    // Instant events with thread scope; ts is microseconds per the trace
    // format. Sim timestamps (virtual seconds) map the same way.
    w.fmt("\", \"cat\": \"dl\", \"ph\": \"i\", \"s\": \"t\", \"ts\": %.3f",
          e.t * 1e6);
    w.fmt(", \"pid\": %d, \"tid\": %u", pid, e.instance);
    w.fmt(", \"args\": {\"epoch\": %llu, \"arg\": %llu}}",
          static_cast<unsigned long long>(e.epoch),
          static_cast<unsigned long long>(e.arg));
  }
  w.text("\n]}\n");
}

std::string FlightRecorder::chrome_trace_json(int pid) const {
  net::ByteRope rope;
  render_chrome_trace(rope, pid);
  return rope_to_string(rope);
}

bool FlightRecorder::dump_to_file(const std::string& path, int pid) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json(pid);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace dl::obs
