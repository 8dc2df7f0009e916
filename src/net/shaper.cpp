#include "net/shaper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace dl::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Rates above this are nonsense for a byte schedule and would overflow the
// token integration; reject them at parse time.
constexpr double kMaxRate = 1e15;

std::string_view trim_view(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

// Parses a strictly positive finite rate; returns false on any leftover text.
bool parse_rate(std::string_view tok, double* out) {
  std::string buf(tok);
  if (buf.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!std::isfinite(v) || v <= 0 || v > kMaxRate) return false;
  *out = v;
  return true;
}

}  // namespace

double RateSchedule::rate_at(double t) const {
  if (rates.empty()) return kInf;
  if (t < 0) t = 0;
  const std::size_t idx = std::min(
      rates.size() - 1, static_cast<std::size_t>(t / step));
  return std::max(rates[idx], kMinRate);
}

double RateSchedule::next_change_after(double t) const {
  if (rates.empty()) return kInf;
  if (t < 0) t = 0;
  const std::size_t idx = static_cast<std::size_t>(t / step);
  if (idx + 1 >= rates.size()) return kInf;  // last entry holds forever
  return static_cast<double>(idx + 1) * step;
}

double RateSchedule::mean_rate() const {
  if (rates.empty()) return kInf;
  double sum = 0;
  for (double r : rates) sum += std::max(r, kMinRate);
  return sum / static_cast<double>(rates.size());
}

std::optional<std::vector<double>> parse_rate_list(std::string_view text,
                                                   std::string* err) {
  std::vector<double> rates;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string_view::npos ? text.size() : comma;
    const std::string_view tok = trim_view(text.substr(start, end - start));
    double v = 0;
    if (!parse_rate(tok, &v)) {
      if (err) {
        *err = "bad rate entry \"" + std::string(tok) +
               "\" (want a positive bytes/sec number)";
      }
      return std::nullopt;
    }
    rates.push_back(v);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (rates.empty()) {
    if (err) *err = "empty rate list";
    return std::nullopt;
  }
  return rates;
}

std::optional<RateSchedule> load_rate_trace(const std::string& path,
                                            std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err) *err = path + ": cannot open trace file";
    return std::nullopt;
  }
  RateSchedule sched;
  double step_ms = 1000;
  bool saw_rate = false;
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& msg) {
    if (err) *err = path + ":" + std::to_string(line_no) + ": " + msg;
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = trim_view(line);
    if (sv.empty() || sv.front() == '#') continue;
    if (sv.substr(0, 7) == "step_ms") {
      if (saw_rate) return fail("step_ms must precede the rates");
      const std::string_view arg = trim_view(sv.substr(7));
      double v = 0;
      if (!parse_rate(arg, &v) || v != std::floor(v) || v < 1 || v > 3600000) {
        return fail("bad step_ms (want an integer in [1, 3600000])");
      }
      step_ms = v;
      continue;
    }
    double v = 0;
    if (!parse_rate(sv, &v)) {
      return fail("bad rate \"" + std::string(sv) +
                  "\" (want a positive bytes/sec number)");
    }
    sched.rates.push_back(v);
    saw_rate = true;
  }
  if (sched.rates.empty()) return fail("trace has no rates");
  sched.step = step_ms / 1000.0;
  return sched;
}

LinkShaper::LinkShaper(const Config& cfg, double now)
    : cfg_(cfg), origin_(now), rng_(cfg.seed) {
  if (cfg_.schedule.unlimited()) {
    burst_ = std::numeric_limits<std::size_t>::max() / 2;
  } else if (cfg_.burst_bytes > 0) {
    burst_ = std::max(cfg_.burst_bytes, kDefaultQuantum);
  } else {
    // ~20ms of the mean line rate, floored so at least a few quanta fit.
    const double auto_burst = cfg_.schedule.mean_rate() * 0.02;
    burst_ = static_cast<std::size_t>(std::clamp(
        auto_burst, static_cast<double>(4 * kDefaultQuantum), 16.0 * 1024 * 1024));
  }
  quantum_ = std::min(kDefaultQuantum, burst_);
  tokens_ = static_cast<double>(burst_);  // bucket starts full
  last_refill_ = now;
}

void LinkShaper::refill(double now) {
  if (now <= last_refill_) return;
  if (cfg_.schedule.unlimited()) {
    last_refill_ = now;
    tokens_ = static_cast<double>(burst_);
    return;
  }
  const double cap = static_cast<double>(burst_);
  double t = last_refill_;
  while (t < now && tokens_ < cap) {
    const double rate = cfg_.schedule.rate_at(t - origin_);
    const double change = cfg_.schedule.next_change_after(t - origin_);
    const double seg_end =
        std::min(now, change == kInf ? now : origin_ + change);
    tokens_ = std::min(cap, tokens_ + rate * (seg_end - t));
    t = seg_end;
  }
  last_refill_ = now;
}

std::size_t LinkShaper::take(double now, std::size_t want) {
  if (want == 0) return 0;
  refill(now);
  if (cfg_.schedule.unlimited()) {
    stats_.shaped_bytes += want;
    return want;
  }
  const double need = static_cast<double>(std::min(want, quantum_));
  if (tokens_ < need) {
    ++stats_.throttle_waits;
    return 0;
  }
  const std::size_t grant =
      std::min(want, static_cast<std::size_t>(tokens_));
  tokens_ -= static_cast<double>(grant);
  stats_.shaped_bytes += grant;
  return grant;
}

double LinkShaper::next_release(double now, std::size_t want) {
  refill(now);
  if (cfg_.schedule.unlimited()) return now;
  double deficit = static_cast<double>(std::min(want, quantum_)) - tokens_;
  if (deficit <= 0) return now;
  // Integrate the piecewise schedule forward until the deficit is covered.
  double t = now;
  for (;;) {
    const double rate = cfg_.schedule.rate_at(t - origin_);
    const double change = cfg_.schedule.next_change_after(t - origin_);
    const double boundary = change == kInf ? kInf : origin_ + change;
    const double dt_needed = deficit / rate;
    if (t + dt_needed <= boundary) return t + dt_needed;
    deficit -= rate * (boundary - t);
    t = boundary;
  }
}

double LinkShaper::arrival(double paid_at, double after) {
  return std::max(paid_at + delay_draw(), after);
}

double LinkShaper::delay_draw() {
  if (cfg_.jitter <= 0) return cfg_.delay;
  return cfg_.delay + cfg_.jitter * rng_.next_double();
}

bool LinkShaper::lose_frame(std::size_t frame_bytes) {
  if (cfg_.loss <= 0) return false;
  if (rng_.next_double() >= cfg_.loss) return false;
  ++stats_.lost_frames;
  stats_.lost_bytes += frame_bytes;
  return true;
}

}  // namespace dl::net
