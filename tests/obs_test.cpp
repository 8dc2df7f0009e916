// Observability plane: histogram bucket math against a linear-scan
// reference, registry rendering goldens, concurrent updates under TSan,
// flight-recorder ring semantics, and the admin HTTP responder end-to-end
// over a real socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "obs/admin.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/statline.hpp"

namespace dl::obs {
namespace {

// --- Histogram bucket math ---------------------------------------------------

// Reference implementation: the bucket of `v` is the first one whose upper
// bound admits it. O(kBuckets) per lookup, obviously correct.
int reference_bucket(std::uint64_t v) {
  for (int i = 0; i < Histogram::kBuckets - 1; ++i) {
    if (v <= Histogram::upper_bound(i)) return i;
  }
  return Histogram::kBuckets - 1;
}

TEST(HistogramTest, BucketIndexMatchesReferenceExhaustiveLow) {
  for (std::uint64_t v = 0; v <= 200'000; ++v) {
    ASSERT_EQ(Histogram::bucket_index(v), reference_bucket(v)) << "v=" << v;
  }
}

TEST(HistogramTest, BucketIndexMatchesReferenceAtPowerBoundaries) {
  for (int shift = 0; shift < 64; ++shift) {
    const std::uint64_t p = 1ULL << shift;
    for (std::uint64_t v : {p - 1, p, p + 1}) {
      ASSERT_EQ(Histogram::bucket_index(v), reference_bucket(v))
          << "v=" << v;
    }
  }
  ASSERT_EQ(Histogram::bucket_index(UINT64_MAX),
            reference_bucket(UINT64_MAX));
}

TEST(HistogramTest, BucketIndexMatchesReferenceAtBucketBoundaries) {
  for (int i = 0; i < Histogram::kBuckets - 1; ++i) {
    const std::uint64_t hi = Histogram::upper_bound(i);
    ASSERT_EQ(Histogram::bucket_index(hi), i) << "upper_bound(" << i << ")";
    ASSERT_EQ(Histogram::bucket_index(hi + 1), i + 1)
        << "upper_bound(" << i << ")+1";
    if (hi > 0) {
      ASSERT_EQ(Histogram::bucket_index(hi - 1), reference_bucket(hi - 1));
    }
  }
}

TEST(HistogramTest, UpperBoundsStrictlyIncrease) {
  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    ASSERT_LT(Histogram::upper_bound(i - 1), Histogram::upper_bound(i));
  }
  ASSERT_EQ(Histogram::upper_bound(Histogram::kBuckets - 1), UINT64_MAX);
}

TEST(HistogramTest, RelativeErrorBounded) {
  // Past the unit buckets, a bucket spans [lo, hi] with width 2^(o-2) and
  // lo >= 2^o, so width/lo <= 1/4 — a midpoint estimate is within 12.5% of
  // any value in the bucket.
  for (int i = Histogram::kUnitBuckets; i < Histogram::kBuckets - 1; ++i) {
    const double lo = static_cast<double>(Histogram::upper_bound(i - 1)) + 1;
    const double hi = static_cast<double>(Histogram::upper_bound(i));
    ASSERT_LE((hi - lo) / lo, 0.25 + 1e-9) << "bucket " << i;
  }
}

TEST(HistogramTest, ObserveAndSnapshot) {
  Histogram h;
  h.observe(3);
  h.observe(10);
  h.observe(10);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 23u);
  EXPECT_EQ(s.buckets[Histogram::bucket_index(3)], 1u);
  EXPECT_EQ(s.buckets[Histogram::bucket_index(10)], 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 23.0 / 3.0);
}

TEST(HistogramTest, QuantileWithinBucketError) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.observe(v);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.quantile(0.5), 500.0, 500.0 * 0.13);
  EXPECT_NEAR(s.quantile(0.99), 990.0, 990.0 * 0.13);
  EXPECT_GE(s.quantile(1.0), s.quantile(0.0));
}

// --- Registry rendering ------------------------------------------------------

TEST(RegistryTest, PrometheusGolden) {
  Registry reg;
  reg.counter("test_total", "things done")->set(3);
  reg.gauge("depth", "queue depth")->set(-5);
  Histogram* h = reg.histogram("lat_us", "latency");
  h->observe(3);   // unit bucket, le="3"
  h->observe(10);  // octave 3 sub 1, le="11"
  reg.counter("peered_total", "with labels", "peer=\"1\"")->set(9);
  const std::string text = reg.prometheus_text();
  EXPECT_EQ(text,
            "# HELP test_total things done\n"
            "# TYPE test_total counter\n"
            "test_total 3\n"
            "# HELP depth queue depth\n"
            "# TYPE depth gauge\n"
            "depth -5\n"
            "# HELP lat_us latency\n"
            "# TYPE lat_us histogram\n"
            "lat_us_bucket{le=\"3\"} 1\n"
            "lat_us_bucket{le=\"11\"} 2\n"
            "lat_us_bucket{le=\"+Inf\"} 2\n"
            "lat_us_sum 13\n"
            "lat_us_count 2\n"
            "# HELP peered_total with labels\n"
            "# TYPE peered_total counter\n"
            "peered_total{peer=\"1\"} 9\n");
}

TEST(RegistryTest, StatuszGolden) {
  Registry reg;
  reg.counter("c_total", "c")->set(7);
  reg.gauge("g", "g", "peer=\"2\"")->set(-1);
  reg.histogram("h_us", "h")->observe(4);
  const std::string json = reg.statusz_json(1.5);
  EXPECT_NE(json.find("\"now\": 1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c_total\": 7"), std::string::npos) << json;
  // The label quotes must be escaped inside the JSON key.
  EXPECT_NE(json.find("\"g{peer=\\\"2\\\"}\": -1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"h_us\": {\"count\": 1, \"sum\": 4"),
            std::string::npos)
      << json;
}

TEST(RegistryTest, RegistrationIsIdempotent) {
  Registry reg;
  Counter* a = reg.counter("x_total", "x");
  Counter* b = reg.counter("x_total", "x");
  EXPECT_EQ(a, b);
  Counter* c = reg.counter("x_total", "x", "peer=\"1\"");
  EXPECT_NE(a, c);
  Histogram* h1 = reg.histogram("y_us", "y");
  Histogram* h2 = reg.histogram("y_us", "y");
  EXPECT_EQ(h1, h2);
  // The text must carry ONE family header and both series.
  a->inc();
  c->inc();
  const std::string text = reg.prometheus_text();
  std::size_t helps = 0;
  for (std::size_t p = text.find("# HELP x_total"); p != std::string::npos;
       p = text.find("# HELP x_total", p + 1)) {
    ++helps;
  }
  EXPECT_EQ(helps, 1u);
  EXPECT_NE(text.find("x_total 1"), std::string::npos);
  EXPECT_NE(text.find("x_total{peer=\"1\"} 1"), std::string::npos);
}

TEST(RegistryTest, SampleHookRunsOnRender) {
  Registry reg;
  Counter* c = reg.counter("hooked_total", "set by hook");
  int calls = 0;
  reg.add_sample_hook([&] {
    ++calls;
    c->set(42);
  });
  const std::string text = reg.prometheus_text();
  EXPECT_EQ(calls, 1);
  EXPECT_NE(text.find("hooked_total 42"), std::string::npos);
  reg.statusz_json(0.0);
  EXPECT_EQ(calls, 2);
}

// Exercised under TSan in CI: writers hammer every instrument kind while a
// reader renders both expositions. Nothing here may race or tear.
TEST(RegistryTest, ConcurrentUpdatesAndSnapshots) {
  Registry reg;
  Counter* c = reg.counter("c_total", "c");
  Gauge* g = reg.gauge("g", "g");
  Histogram* h = reg.histogram("h_us", "h");
  constexpr int kThreads = 4;
  constexpr int kPer = 20'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)reg.prometheus_text();
      (void)reg.statusz_json(0.0);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) {
        c->inc();
        g->add(1);
        h->observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kPer);
  EXPECT_EQ(g->value(), static_cast<std::int64_t>(kThreads) * kPer);
  EXPECT_EQ(h->snapshot().count, static_cast<std::uint64_t>(kThreads) * kPer);
}

// --- StatLine ----------------------------------------------------------------

TEST(StatLineTest, Formats) {
  StatLine line;
  line.f("t", 1.5)
      .kv("inflight", 3)
      .kvi("delta", -2)
      .rate("tx", 4, 2.0)
      .rate("stalled", 1, 0.0)
      .ms("p50", 4.25);
  EXPECT_EQ(line.str(), "t=1.5 inflight=3 delta=-2 tx=2.0/s stalled=-/s "
                        "p50=4.2ms");
}

// --- Flight recorder ---------------------------------------------------------

TEST(FlightRecorderTest, RingWrapKeepsNewest) {
  FlightRecorder fr(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    fr.record(static_cast<double>(i), FlightRecorder::Ev::kDeliver, i);
  }
  EXPECT_EQ(fr.total_recorded(), 20u);
  EXPECT_EQ(fr.dropped(), 12u);
  const std::vector<FlightRecorder::Event> ev = fr.events();
  ASSERT_EQ(ev.size(), 8u);
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].epoch, 12 + i);  // oldest-first, newest retained
  }
}

TEST(FlightRecorderTest, EventNamesExist) {
  using Ev = FlightRecorder::Ev;
  for (Ev e : {Ev::kPropose, Ev::kVidChunkRx, Ev::kVidComplete, Ev::kBaDecide,
               Ev::kEpochClosed, Ev::kDeliver, Ev::kCatchUpRound,
               Ev::kCatchUpInstall}) {
    ASSERT_NE(FlightRecorder::name(e), nullptr);
    ASSERT_GT(std::strlen(FlightRecorder::name(e)), 0u);
  }
}

// Cheap structural JSON check: quotes balanced, braces/brackets nest and
// close, no trailing garbage. Catches the classic trailing-comma and
// unterminated-string bugs without a JSON dependency.
void expect_balanced_json(const std::string& s) {
  int brace = 0, bracket = 0;
  bool in_str = false, esc = false;
  for (char ch : s) {
    if (esc) {
      esc = false;
      continue;
    }
    if (in_str) {
      if (ch == '\\') esc = true;
      if (ch == '"') in_str = false;
      continue;
    }
    switch (ch) {
      case '"': in_str = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    ASSERT_GE(brace, 0);
    ASSERT_GE(bracket, 0);
  }
  EXPECT_FALSE(in_str);
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
}

TEST(FlightRecorderTest, ChromeTraceIsValid) {
  FlightRecorder fr(16);
  fr.record(1.5, FlightRecorder::Ev::kPropose, 7, 2, 99);
  fr.record(2.0, FlightRecorder::Ev::kBaDecide, 7, 3, 1);
  const std::string json = fr.chrome_trace_json(/*pid=*/4);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1500000.000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\": 4"), std::string::npos);
  EXPECT_NE(json.find(FlightRecorder::name(FlightRecorder::Ev::kBaDecide)),
            std::string::npos);
  EXPECT_NE(json.find("\"epoch\": 7"), std::string::npos);
}

TEST(FlightRecorderTest, StatuszIsValidJson) {
  Registry reg;
  reg.counter("a_total", "a", "peer=\"0\"")->set(1);
  reg.histogram("b_us", "b")->observe(12);
  expect_balanced_json(reg.statusz_json(3.25));
}

// --- Admin server end-to-end -------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: x\r\n\r\n";
  ssize_t off = 0;
  while (off < static_cast<ssize_t>(req.size())) {
    const ssize_t n = write(fd, req.data() + off, req.size() - off);
    if (n <= 0) break;
    off += n;
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  return resp;
}

TEST(AdminServerTest, ServesAllEndpoints) {
  net::EventLoop loop;
  Registry reg;
  reg.counter("served_total", "t")->set(7);
  FlightRecorder fr(16);
  fr.record(0.5, FlightRecorder::Ev::kDeliver, 1);
  AdminServer::Options opt;
  opt.port = 0;  // ephemeral
  opt.pid = 3;
  AdminServer admin(loop, reg, opt);
  admin.set_flight_recorder(&fr);
  const std::uint16_t port = admin.bound_port();
  ASSERT_NE(port, 0);

  // The loop runs here, the HTTP client on a helper thread; a loop timer
  // stops the loop once the helper is done.
  std::string metrics, health, statusz, trace, missing;
  std::atomic<bool> client_done{false};
  std::thread client([&] {
    metrics = http_get(port, "/metrics");
    health = http_get(port, "/healthz");
    statusz = http_get(port, "/statusz");
    trace = http_get(port, "/tracez?x=1");
    missing = http_get(port, "/nope");
    client_done.store(true);
  });
  std::function<void()> poll = [&] {
    if (client_done.load()) {
      loop.stop();
      return;
    }
    loop.after(0.002, poll);
  };
  loop.after(0.002, poll);
  loop.run();
  client.join();

  EXPECT_NE(metrics.find("200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.find("served_total 7"), std::string::npos);

  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  EXPECT_NE(statusz.find("200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("\"served_total\": 7"), std::string::npos);

  EXPECT_NE(trace.find("200 OK"), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"pid\": 3"), std::string::npos);

  EXPECT_NE(missing.find("404"), std::string::npos);

  EXPECT_EQ(admin.requests_served(), 5u);
}

}  // namespace
}  // namespace dl::obs
