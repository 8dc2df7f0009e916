// Helpers shared by the dlbench tools and their unit tests: the open-loop
// arrival schedule, the percentile used for every reported timing, and a
// tiny JSON emitter for the tools' result files.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dlbench {

// Open-loop Poisson arrivals on an absolute schedule: due times are the
// seeded sequence start + Exp(rate) gaps, fixed in advance. A generator
// that runs late releases the backlog on its next tick instead of pushing
// every later arrival back, so the offered rate is the configured one and
// latency can be taken from the due time.
class ArrivalSchedule {
 public:
  ArrivalSchedule(double rate_per_s, std::uint64_t seed, double start)
      : rng_(seed), rate_(rate_per_s), next_(start + rng_.next_exponential(rate_)) {}

  double next_due() const { return next_; }

  // Calls fn(due) for every arrival due at or before `now` (and before
  // `until`), in due order. Returns how many were released.
  template <typename Fn>
  std::size_t release(double now, double until, Fn&& fn) {
    std::size_t k = 0;
    while (next_ <= now && next_ < until) {
      fn(next_);
      next_ += rng_.next_exponential(rate_);
      ++k;
    }
    return k;
  }

 private:
  dl::Rng rng_;
  double rate_;
  double next_;
};

// Nearest-rank percentile (q in [0, 1]) of `v`; reorders `v`. 0 when empty.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  idx = std::min(idx, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

// This process's CPU time and context switches so far (getrusage).
struct SelfUsage {
  double user_s = 0;
  double sys_s = 0;
  double ctxsw = 0;
};
inline SelfUsage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  SelfUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6;
  u.ctxsw = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

// Peak resident set of this process in MB (VmHWM), 0 if unreadable.
inline double self_peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

// A JSON number with all its digits (non-finite values become 0).
inline std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Minimal JSON object writer for flat result files: keys in insertion
// order, numbers with all their digits.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) { return raw(key, json_num(v)); }
  JsonOut& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  // `json` must already be valid JSON (an object or array built elsewhere).
  JsonOut& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  // p50/p99/count of a sample set (in the samples' own unit).
  JsonOut& dist(const std::string& key, std::vector<double>& v) {
    JsonOut d;
    d.num("p50", percentile(v, 0.50)).num("p99", percentile(v, 0.99))
        .num("count", static_cast<double>(v.size()));
    return raw(key, d.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace dlbench
