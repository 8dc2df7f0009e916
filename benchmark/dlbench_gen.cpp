// dlbench_gen — the load generator: one process, one net::EventLoop thread,
// one client::DlClient connection per replica.
//
//   dlbench_gen --ports P0,P1,... --mode probe|open|closed --result FILE
//               [--host H] [--rate TX_PER_S] [--seed S] [--window D]
//               [--stages] [--spans FILE]
//
// Transactions are kTxBytes long. Every mode first submits one probe
// transaction per replica and waits for all of them to commit ("ready" on
// stdout). `probe` stops there. Then:
//
//   open    arrivals on an absolute Poisson schedule at --rate tx/s; a 1 ms
//           tick submits every transaction whose due time has passed
//           (round-robin over the connections). Latency counts from the
//           due time, so a late generator shows up as latency, and the lag
//           (submit - due) is reported separately.
//   closed  kOutstanding transactions in flight per connection; each
//           commit immediately submits the next one (due = submit).
//
// After kWarmupS seconds the measurement window of --window seconds opens;
// "window_start" and "window_end" go to stdout as they pass, so the caller
// can snapshot replica counters at the same instants. Submission stops at
// the window end; the generator then waits up to kDrainS seconds for every
// submitted transaction to commit and writes the result file. A transaction
// counts as failed unless it was acknowledged without a reject and
// committed exactly once.
//
// The commit latency quantiles are medians over kSlices equal slices of the
// window (by due time) of each slice's quantile. A host stall, such as one
// slow fsync on a shared disk, then moves one slice and not the run: in 2
// of 10 lan_durable runs such a stall took the whole-window p99 from 31 ms
// to 92 and 147 ms.
//
// --stages keeps the node-reported stage breakdown of every window
// transaction; --spans writes chrome-trace JSON for 1 in 64 of them (the
// first kMaxSpans).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/dl_client.hpp"
#include "common/bytes.hpp"
#include "dlbench.hpp"
#include "net/event_loop.hpp"

namespace {

using namespace dl;

constexpr std::size_t kTxBytes = 200;
constexpr int kOutstanding = 1024;  // closed loop, per connection
constexpr double kWarmupS = 5;
constexpr double kDrainS = 5;
constexpr std::size_t kSlices = 5;

struct Flags {
  std::string host = "127.0.0.1";
  std::vector<std::uint16_t> ports;
  std::string mode;
  double rate = 1000;
  std::uint64_t seed = 1;
  double window = 10;
  bool stages = false;
  std::string spans_path;
  std::string result_path;
};

bool parse_flags(int argc, char** argv, Flags& f) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--stages") {
      f.stages = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--host") {
      f.host = v;
    } else if (a == "--ports") {
      for (const char* p = v; *p != '\0';) {
        char* end = nullptr;
        const long port = std::strtol(p, &end, 10);
        if (end == p || port <= 0 || port > 65535) return false;
        f.ports.push_back(static_cast<std::uint16_t>(port));
        p = *end == ',' ? end + 1 : end;
      }
    } else if (a == "--mode") {
      f.mode = v;
    } else if (a == "--rate") {
      f.rate = std::atof(v);
    } else if (a == "--seed") {
      f.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--window") {
      f.window = std::atof(v);
    } else if (a == "--spans") {
      f.spans_path = v;
    } else if (a == "--result") {
      f.result_path = v;
    } else {
      return false;
    }
  }
  return !f.ports.empty() && !f.result_path.empty() && f.rate > 0 && f.window > 0 &&
         (f.mode == "probe" || f.mode == "open" || f.mode == "closed");
}

// One submitted transaction; times are seconds after the workload start.
struct TxRec {
  float due = 0;
  float submit = 0;
  std::uint8_t commits = 0;
  bool bad_ack = false;
};

// Sampled transactions kept for the chrome trace, at most (about 8 MB of
// JSON; more is more than a trace viewer shows usefully).
constexpr std::size_t kMaxSpans = 8192;

// One sampled transaction for the chrome trace, in absolute loop seconds.
struct Span {
  int conn = 0;
  std::uint64_t seq = 0;
  double due = 0, submit = 0, ack = 0, commit = 0;
  net::StageLatencies stages;
};

void mark(const char* what) {
  std::printf("%s\n", what);
  std::fflush(stdout);
}

// Chrome-trace JSON: one row per sampled transaction (pid = connection,
// tid = seq). Node stages are laid end to end from the ack, on the node's
// clock; "wire" is what remains of the client-measured time.
bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "{\"traceEvents\": [\n";
  bool first = true;
  auto ev = [&](const Span& s, const char* name, double t0, double t1) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, "
                  "\"tid\": %llu, \"ts\": %.1f, \"dur\": %.1f}",
                  first ? "" : ",\n", name, s.conn,
                  static_cast<unsigned long long>(s.seq), t0 * 1e6,
                  (t1 > t0 ? t1 - t0 : 0) * 1e6);
    f << buf;
    first = false;
  };
  for (const Span& s : spans) {
    ev(s, "tx", s.due, s.commit);
    ev(s, "gen_lag", s.due, s.submit);
    ev(s, "admit", s.submit, s.ack);
    double t = s.ack;
    const std::uint32_t us[5] = {s.stages.ingress_us, s.stages.disperse_us,
                                 s.stages.ba_us, s.stages.retrieve_us,
                                 s.stages.notify_us};
    const char* names[5] = {"ingress", "disperse", "ba", "retrieve", "notify"};
    for (int k = 0; k < 5; ++k) {
      ev(s, names[k], t, t + us[k] / 1e6);
      t += us[k] / 1e6;
    }
    ev(s, "wire", t, s.commit);
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  Flags fl;
  if (!parse_flags(argc, argv, fl)) {
    std::fprintf(stderr,
                 "usage: dlbench_gen --ports P0,P1,... --mode probe|open|closed "
                 "--result FILE [--host H] [--rate TX_PER_S] [--seed S] "
                 "[--window D] [--stages] [--spans FILE]\n");
    return 2;
  }

  net::EventLoop loop;
  const std::size_t conns = fl.ports.size();
  std::vector<std::unique_ptr<client::DlClient>> clients;
  // The nonce stamped into payloads keeps them distinct from any other
  // generator process that ever talked to the same replicas.
  const std::uint64_t nonce =
      fl.seed * 0x9E3779B97F4A7C15ULL ^ (static_cast<std::uint64_t>(getpid()) << 20);
  for (std::size_t c = 0; c < conns; ++c) {
    client::DlClient::Options opt;
    opt.nonce = nonce + c + 1;
    // The generator starts before the replicas: redial every 2 ms so each
    // connection is up within 2 ms of its client port accepting.
    opt.reconnect_min = 0.002;
    opt.reconnect_max = 0.002;
    clients.push_back(
        std::make_unique<client::DlClient>(loop, fl.host, fl.ports[c], opt));
  }

  // Precomputed payload template; each transaction stamps a counter and
  // the nonce into its first 16 bytes.
  const Bytes tmpl = random_bytes(kTxBytes, fl.seed ^ 0x7E3A);
  std::uint64_t counter = 0;
  auto payload = [&] {
    Bytes p = tmpl;
    const std::uint64_t stamp[2] = {counter++, nonce};
    std::memcpy(p.data(), stamp, sizeof stamp);
    return p;
  };

  // --- probe: one committed transaction per replica ----------------------
  std::size_t probes_left = conns;
  bool probing = true;
  std::function<void()> begin_workload;

  // --- workload state -----------------------------------------------------
  double t0 = 0, ws = 0, we = 0;  // workload start, window start/end
  std::vector<std::vector<TxRec>> recs(conns);
  std::uint64_t submitted = 0, settled = 0, rejected = 0, committed_in_window = 0;
  std::vector<double> lat_ms[kSlices];
  std::vector<double> ack_ms, node_ms, wire_ms, lag_ms;
  std::vector<double> stage_ms[5];
  // Sampled transactions; span_of[c][seq / 64] is a span index + 1.
  std::vector<Span> spans;
  std::vector<std::vector<std::size_t>> span_of(conns);
  bool window_open = false, window_closed = false;
  dlbench::SelfUsage cpu0, cpu1;
  const bool closed = fl.mode == "closed";
  std::size_t rr = 0;

  auto submit = [&](std::size_t c, double due) {
    const double now = loop.now();
    const std::uint64_t seq = clients[c]->submit(payload());
    auto& v = recs[c];
    if (v.size() < seq) v.resize(seq);
    TxRec& r = v[seq - 1];
    r.due = static_cast<float>(due - t0);
    r.submit = static_cast<float>(now - t0);
    ++submitted;
    if (due >= ws && due < we) {
      if (!closed) lag_ms.push_back((now - due) * 1e3);
      if (!fl.spans_path.empty() && seq % 64 == 0 && spans.size() < kMaxSpans) {
        Span s;
        s.conn = static_cast<int>(c);
        s.seq = seq;
        s.due = due;
        s.submit = now;
        spans.push_back(s);
        auto& idx = span_of[c];
        if (idx.size() <= seq / 64) idx.resize(seq / 64 + 1);
        idx[seq / 64] = spans.size();
      }
    }
  };
  auto span_for = [&](std::size_t c, std::uint64_t seq) -> Span* {
    const auto& idx = span_of[c];
    if (seq % 64 != 0 || idx.size() <= seq / 64 || idx[seq / 64] == 0) return nullptr;
    return &spans[idx[seq / 64] - 1];
  };

  for (std::size_t c = 0; c < conns; ++c) {
    clients[c]->set_ack_callback([&, c](std::uint64_t seq, net::TxStatus st) {
      const double now = loop.now();
      if (probing || seq == 0 || seq > recs[c].size()) return;
      TxRec& r = recs[c][seq - 1];
      if (st != net::TxStatus::Accepted) {
        r.bad_ack = true;
        if (st == net::TxStatus::Full || st == net::TxStatus::TooLarge) {
          ++rejected;
          ++settled;  // terminal: no commit will follow
        }
      }
      if (t0 + r.submit >= ws && t0 + r.submit < we) {
        ack_ms.push_back((now - t0 - r.submit) * 1e3);
      }
      if (Span* s = span_for(c, seq)) s->ack = now;
    });
    clients[c]->set_commit_callback([&, c](std::uint64_t seq, std::uint64_t,
                                           std::uint32_t, double node_lat,
                                           const net::StageLatencies& st) {
      const double now = loop.now();
      if (probing) {
        if (--probes_left == 0) {
          probing = false;
          mark("ready");
          begin_workload();
        }
        return;
      }
      if (seq == 0 || seq > recs[c].size()) return;
      TxRec& r = recs[c][seq - 1];
      if (++r.commits > 1) return;  // counted as failed below
      ++settled;
      if (now >= ws && now < we) ++committed_in_window;
      const double due = t0 + r.due;
      if (due >= ws && due < we) {
        const auto slice = static_cast<std::size_t>((due - ws) / (we - ws) * kSlices);
        lat_ms[std::min(slice, kSlices - 1)].push_back((now - due) * 1e3);
        if (fl.stages) {
          node_ms.push_back(node_lat * 1e3);
          wire_ms.push_back((now - t0 - r.submit - node_lat) * 1e3);
          const std::uint32_t us[5] = {st.ingress_us, st.disperse_us, st.ba_us,
                                       st.retrieve_us, st.notify_us};
          for (int k = 0; k < 5; ++k) stage_ms[k].push_back(us[k] / 1e3);
        }
      }
      if (Span* s = span_for(c, seq)) {
        s->commit = now;
        s->stages = st;
      }
      if (closed && now < we) submit(c, now);
    });
    clients[c]->start();
  }

  // The 1 ms tick: releases due arrivals (open loop), passes the window
  // edges, and ends the run once everything settled or the drain expired.
  // In the closed loop, where nothing is due, the lag is the tick's own
  // lateness.
  std::unique_ptr<dlbench::ArrivalSchedule> sched;
  double next_tick = 0;
  std::function<void()> tick = [&] {
    const double now = loop.now();
    if (sched != nullptr) {
      sched->release(now, we, [&](double due) {
        submit(rr, due);
        rr = (rr + 1) % conns;
      });
    } else if (window_open && !window_closed) {
      lag_ms.push_back((now - next_tick) * 1e3);
    }
    if (!window_open && now >= ws) {
      window_open = true;
      cpu0 = dlbench::self_usage();
      mark("window_start");
    }
    if (window_open && !window_closed && now >= we) {
      window_closed = true;
      cpu1 = dlbench::self_usage();
      mark("window_end");
    }
    if (window_closed && (settled >= submitted || now >= we + kDrainS)) {
      loop.stop();
      return;
    }
    next_tick = now + 0.001;
    loop.at(next_tick, tick);
  };

  begin_workload = [&] {
    if (fl.mode == "probe") {
      loop.stop();
      return;
    }
    t0 = loop.now();
    ws = t0 + kWarmupS;
    we = ws + fl.window;
    // Slot 0 of every connection is its probe transaction, already settled.
    for (auto& v : recs) v.assign(1, TxRec{.commits = 1});
    if (closed) {
      for (std::size_t c = 0; c < conns; ++c) {
        for (int k = 0; k < kOutstanding; ++k) submit(c, t0);
      }
    } else {
      sched = std::make_unique<dlbench::ArrivalSchedule>(fl.rate, fl.seed, t0);
    }
    next_tick = t0 + 0.001;
    loop.at(next_tick, tick);
  };

  for (std::size_t c = 0; c < conns; ++c) clients[c]->submit(payload());
  bool timed_out = false;
  loop.after(60 + kWarmupS + fl.window + kDrainS, [&] {
    timed_out = true;
    loop.stop();
  });
  loop.run();
  for (auto& cl : clients) cl->close();
  if (probing || timed_out) {
    std::fprintf(stderr, "dlbench_gen: %s\n",
                 probing ? "probe transactions never committed" : "watchdog expired");
    return 1;
  }

  std::uint64_t failed = 0;
  for (const auto& v : recs) {
    for (const TxRec& r : v) failed += (r.commits != 1 || r.bad_ack) ? 1 : 0;
  }
  double samples = 0;
  for (const auto& s : lat_ms) samples += static_cast<double>(s.size());
  auto sliced = [&](double q) {
    std::vector<double> per;
    for (auto& s : lat_ms) {
      if (!s.empty()) per.push_back(dlbench::percentile(s, q));
    }
    return dlbench::percentile(per, 0.5);
  };
  dlbench::JsonOut latency;
  latency.num("p50", sliced(0.50)).num("p99", sliced(0.99)).num("count", samples);

  dlbench::JsonOut out;
  out.str("mode", fl.mode)
      .num("submitted", static_cast<double>(submitted))
      .num("failed", static_cast<double>(failed))
      .num("rejected", static_cast<double>(rejected))
      .num("committed_in_window", static_cast<double>(committed_in_window))
      .num("window_s", fl.window)
      .num("gen_cpu_s", (cpu1.user_s + cpu1.sys_s) - (cpu0.user_s + cpu0.sys_s))
      .raw("latency_ms", latency.str())
      .dist("ack_ms", ack_ms)
      .dist("lag_ms", lag_ms);
  if (fl.stages) {
    const char* names[5] = {"ingress", "disperse", "ba", "retrieve", "notify"};
    out.dist("node_ms", node_ms).dist("wire_ms", wire_ms);
    for (int k = 0; k < 5; ++k) out.dist(std::string(names[k]) + "_ms", stage_ms[k]);
  }
  std::ofstream f(fl.result_path);
  f << out.str() << "\n";
  if (!f) {
    std::fprintf(stderr, "dlbench_gen: cannot write %s\n", fl.result_path.c_str());
    return 1;
  }
  if (!fl.spans_path.empty()) {
    std::vector<Span> complete;
    for (const Span& s : spans) {
      if (s.commit > 0) complete.push_back(s);
    }
    if (!write_spans(fl.spans_path, complete)) {
      std::fprintf(stderr, "dlbench_gen: cannot write %s\n", fl.spans_path.c_str());
      return 1;
    }
  }
  return 0;
}
