// Node-wide metrics registry: named counters, gauges and log-linear
// histograms, scrapeable live while every loop keeps running.
//
// Shape of the problem: a replica's stats live in many places — EventLoop
// drain counters, per-peer counters inside TcpEnv, gateway and mempool
// admit/drop tallies, LedgerStore fsync counts. The registry gives them one
// export surface with two rules:
//
//   update side — Counter/Gauge are single relaxed atomics; Histogram is a
//     relaxed fetch_add into one of ~160 fixed buckets. All are safe to hit
//     from any thread and cheap enough for event-loop hot paths.
//
//   snapshot side — render_prometheus()/render_statusz() first run the
//     registered sample hooks (closures that mirror externally-owned stats
//     structs into instruments), then walk the families. Hooks run on the
//     snapshotting thread; in dlnoded that is the node home loop, so hooks
//     may read home-loop-affine state: every replica stats struct is.
//
// Instruments are registered once at startup and never unregistered;
// pointers returned by counter()/gauge()/histogram() stay valid for the
// registry's lifetime (deque storage). Registering the same name+labels
// twice returns the same instrument, so idempotent wiring is safe.
//
// Rendering writes into a caller-provided pooled net::ByteRope — the admin
// endpoint and the --stats-interval timer do not malloc per scrape
// (steady-state chunks recycle through the BufferPool).
//
// Histogram buckets are log-linear (HDR-style): exact unit buckets for
// values 0..7, then 4 sub-buckets per power of two up to 2^40, one overflow
// bucket above. Relative error above 8 is bounded by 1/4 of an octave
// (~12.5%); tests/obs_test.cpp pins the boundary math against a reference.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <atomic>
#include <array>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/buffer_pool.hpp"

namespace dl::obs {

class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  // Sets the absolute value; used by sample hooks that mirror an external
  // monotonic counter into the registry.
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Histogram {
 public:
  // 0..7 exact, then 4 sub-buckets per octave for octaves 3..39 (values up
  // to 2^40 - 1), then one overflow bucket.
  static constexpr int kUnitBuckets = 8;
  static constexpr int kSubBuckets = 4;
  static constexpr int kFirstOctave = 3;
  static constexpr int kLastOctave = 39;
  static constexpr int kBuckets =
      kUnitBuckets + (kLastOctave - kFirstOctave + 1) * kSubBuckets + 1;

  // Maps a value to its bucket. Exposed (with upper_bound) so the test can
  // check the fast path against a linear-scan reference.
  static int bucket_index(std::uint64_t v);
  // Inclusive upper bound of bucket `idx`; UINT64_MAX for the overflow
  // bucket. bucket_index(upper_bound(i)) == i and
  // bucket_index(upper_bound(i) + 1) == i + 1 for every non-final bucket.
  static std::uint64_t upper_bound(int idx);

  void observe(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const {
      return count == 0 ? 0.0 : static_cast<double>(sum) / count;
    }
    // Quantile estimate (q in [0,1]) with linear interpolation inside the
    // winning bucket's value range.
    double quantile(double q) const;
  };
  Snapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// Appends formatted text to a ByteRope without intermediate std::string
// churn: printf-style writes land directly in the rope's reserved tail.
class RopeWriter {
 public:
  explicit RopeWriter(net::ByteRope& rope) : rope_(rope) {}

  void text(std::string_view s);
  void fmt(const char* f, ...) __attribute__((format(printf, 2, 3)));
  void u64(std::uint64_t v) { fmt("%llu", static_cast<unsigned long long>(v)); }
  void i64(std::int64_t v) { fmt("%lld", static_cast<long long>(v)); }
  void f64(double v) { fmt("%.6g", v); }
  // JSON string escaping for the `"` and `\` that metric label strings
  // contain (control characters are not expected in metric names).
  void json_str(std::string_view s);

 private:
  net::ByteRope& rope_;
};

// Drains a rope into a std::string (test/convenience path; the hot export
// paths keep the rope and writev it out instead).
std::string rope_to_string(net::ByteRope& rope);

class Registry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  // Registers (or finds) an instrument. `name` is the Prometheus family
  // name; `labels` is a pre-rendered label body without braces, e.g.
  // `peer="2"` — empty for unlabelled series. `help` is kept from the first
  // registration of a family. Thread-safe; intended for startup wiring.
  Counter* counter(const std::string& name, const std::string& help,
                   const std::string& labels = "");
  Gauge* gauge(const std::string& name, const std::string& help,
               const std::string& labels = "");
  Histogram* histogram(const std::string& name, const std::string& help,
                       const std::string& labels = "");

  // Runs at the start of every snapshot, on the snapshotting thread.
  // Typical hook: copy a subsystem's stats struct into registry
  // instruments.
  void add_sample_hook(std::function<void()> fn);

  // Prometheus text exposition (version 0.0.4). Empty histogram buckets are
  // elided (cumulative semantics allow it); `+Inf` is always present.
  void render_prometheus(net::ByteRope& out);
  // JSON document for /statusz: flat name{labels} -> value map plus
  // histogram summaries (count/sum/mean/p50/p90/p99).
  void render_statusz(net::ByteRope& out, double now_seconds);

  // Convenience wrappers (tests, SIGUSR1 stderr dump).
  std::string prometheus_text();
  std::string statusz_json(double now_seconds);

 private:
  struct Series {
    std::string labels;  // pre-rendered, no braces; "" for unlabelled
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };
  struct Family {
    std::string name;
    std::string help;
    Kind kind;
    std::vector<Series> series;
  };

  Family& family_locked(const std::string& name, const std::string& help,
                        Kind kind);
  Series& series_locked(Family& fam, const std::string& labels);
  void run_hooks();

  std::mutex mu_;
  std::deque<Family> families_;  // registration order; stable addresses
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<std::function<void()>> hooks_;
};

}  // namespace dl::obs
