// micro_loop — event-loop mailbox and wake-path microbenchmarks.
//
// EventLoop::post is the one way onto a loop from another thread (a replica
// itself is one thread; its loop posts to itself, and tests and tools post
// into it). This bench pins the primitive costs of that path:
//
//   post_spsc_{mutex,mpsc}   one producer thread pushing closures through the
//                            FULL cross-thread post path — mailbox plus wake
//                            protocol — while the consumer drains and parks.
//                            "mutex" is the legacy path byte for byte (lock +
//                            std::function vector + one eventfd write per
//                            post); "mpsc" is the current one (lock-free
//                            queue, InlineTask storage, wake-collapsed
//                            eventfd).
//   post_mp4_{mutex,mpsc}    the same with four producer threads — the
//                            contended shape the MPSC mailbox exists for.
//                            The mpsc rows are expected to beat the mutex
//                            rows by >=2x (the ratio is tracked in
//                            docs/PERF.md; CI perf-smoke checks rows exist).
//   wake_latency             post() from a foreign thread into a parked
//                            EventLoop, measuring post -> task-runs latency
//                            (ops are round trips; read latency as 1/rate).
//   fanout4                  one thread posting a closure to 4 live loops
//                            per round and waiting for all 4 to run it: a
//                            four-way post fan-out.
//
// Rows are dl-perf-v1 (BENCH_micro_loop.{json,csv}); see docs/PERF.md.
// Run solo: mailbox contention benches are meaningless while another build
// or bench shares the machine.
#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/event_loop.hpp"
#include "net/mpsc_queue.hpp"
#include "runner/report.hpp"

namespace {

using dl::net::EventLoop;
using dl::net::MpscQueue;

// Every pushed task carries ~48 bytes of captured state — the realistic
// cross-loop post shape (a couple of pointers plus a small struct), and
// comfortably inside InlineTask's 64-byte inline storage (no allocation on
// either mailbox).
struct Payload {
  std::uint64_t a = 0, b = 0, c = 0, d = 0, e = 0;
  std::uint64_t* sink = nullptr;  // consumer-thread-only counter
};

// N producer threads each push `per_producer` tasks through the full post
// path; the calling thread drains (and parks on the eventfd when the
// mailbox is empty) until every task has run. Returns wall seconds.
template <typename PostPath>
double run_post_bench(int producers, std::uint64_t per_producer) {
  PostPath path;
  std::uint64_t ran = 0;  // bumped by tasks, i.e. only on this thread
  std::atomic<bool> go{false};
  const std::uint64_t total =
      static_cast<std::uint64_t>(producers) * per_producer;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&path, &ran, &go, per_producer, p] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Payload pay;
      pay.a = static_cast<std::uint64_t>(p);
      pay.sink = &ran;
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        pay.b = i;
        path.push([pay] { ++*pay.sink; });
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::uint64_t before = 0;
  while (ran < total) {
    if (!path.maybe_nonempty()) path.park();
    path.drain_and_run();
    if (ran == before) {
      // Caught a producer mid-push (or a spurious wake): cede the core so
      // it can finish — spinning here would burn its whole quantum.
      std::this_thread::yield();
    }
    before = ran;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (auto& t : threads) t.join();
  return wall;
}

// The legacy EventLoop::post hot path, reproduced byte for byte: mutex +
// std::vector<std::function> (heap-boxing captures beyond the small-buffer
// limit) + one eventfd write per cross-thread post.
class LegacyPostPath {
 public:
  LegacyPostPath() : efd_(eventfd(0, EFD_CLOEXEC)) {}
  ~LegacyPostPath() { close(efd_); }

  template <typename F>
  void push(F&& fn) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      q_.emplace_back(std::forward<F>(fn));
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(efd_, &one, sizeof one);
  }

  bool maybe_nonempty() const {
    std::lock_guard<std::mutex> lk(mu_);
    return !q_.empty();
  }

  void park() {
    std::uint64_t v;
    [[maybe_unused]] ssize_t n = read(efd_, &v, sizeof v);
  }

  void drain_and_run() {
    std::vector<std::function<void()>> batch;
    {
      std::lock_guard<std::mutex> lk(mu_);
      batch.swap(q_);
    }
    for (auto& fn : batch) fn();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::function<void()>> q_;
  int efd_;
};

// The current post path: lock-free MPSC mailbox with inline task storage,
// eventfd written only on the parked->pending edge (wake collapsing), the
// flag cleared at the top of every drain exactly as in event_loop.cpp.
class MpscPostPath {
 public:
  MpscPostPath() : efd_(eventfd(0, EFD_CLOEXEC)) {}
  ~MpscPostPath() { close(efd_); }

  template <typename F>
  void push(F&& fn) {
    q_.push(std::forward<F>(fn));
    // Dekker fast path exactly as in EventLoop::post: a burst pays the RMW
    // and eventfd syscall once, every later push just a seq_cst load.
    if (!wake_pending_.load(std::memory_order_seq_cst) &&
        !wake_pending_.exchange(true, std::memory_order_seq_cst)) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = write(efd_, &one, sizeof one);
    }
  }

  bool maybe_nonempty() const { return q_.maybe_nonempty(); }

  void park() {
    std::uint64_t v;
    [[maybe_unused]] ssize_t n = read(efd_, &v, sizeof v);
  }

  void drain_and_run() {
    wake_pending_.exchange(false, std::memory_order_seq_cst);
    q_.consume();  // in-place, as in EventLoop::drain_posted
  }

 private:
  MpscQueue q_;
  std::atomic<bool> wake_pending_{false};
  int efd_;
};

template <typename PostPath>
dl::runner::PerfRow post_row(const std::string& name, int producers,
                             std::uint64_t per_producer) {
  run_post_bench<PostPath>(producers, per_producer / 4);  // warm up
  const double wall = run_post_bench<PostPath>(producers, per_producer);
  return {name, "posts",
          static_cast<std::uint64_t>(producers) * per_producer, wall};
}

// Round-trip wake latency: a parked loop is woken by a foreign-thread post;
// the task flips a flag the poster spins on. One op = one park->wake->run
// round trip, so latency = wall / ops.
dl::runner::PerfRow wake_latency_row(std::uint64_t rounds) {
  EventLoop loop;
  std::thread runner([&loop] { loop.run(); });

  std::atomic<std::uint64_t> acked{0};
  auto round_trip = [&](std::uint64_t upto) {
    while (acked.load(std::memory_order_acquire) < upto) {
      const std::uint64_t next = acked.load(std::memory_order_acquire) + 1;
      loop.post([&acked, next] {
        acked.store(next, std::memory_order_release);
      });
      while (acked.load(std::memory_order_acquire) < next) {
        std::this_thread::yield();
      }
    }
  };

  round_trip(rounds / 8);  // warm up
  const auto t0 = std::chrono::steady_clock::now();
  round_trip(rounds / 8 + rounds);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  loop.post([&loop] { loop.stop(); });
  runner.join();
  return {"wake_latency", "roundtrips", rounds, wall};
}

// Fan-out: each round posts one closure to each of 4 live loops and waits
// for all to run: a four-way post fan-out.
dl::runner::PerfRow fanout_row(std::uint64_t rounds) {
  constexpr int kLoops = 4;
  std::vector<std::unique_ptr<EventLoop>> loops;
  std::vector<std::thread> threads;
  for (int i = 0; i < kLoops; ++i) {
    loops.emplace_back(std::make_unique<EventLoop>());
  }
  for (int i = 0; i < kLoops; ++i) {
    threads.emplace_back([&loops, i] { loops[static_cast<std::size_t>(i)]->run(); });
  }

  std::atomic<std::uint64_t> done{0};
  auto fan = [&](std::uint64_t n) {
    for (std::uint64_t r = 0; r < n; ++r) {
      const std::uint64_t want =
          done.load(std::memory_order_relaxed) + kLoops;
      for (auto& lp : loops) {
        lp->post([&done] { done.fetch_add(1, std::memory_order_release); });
      }
      while (done.load(std::memory_order_acquire) < want) {
        std::this_thread::yield();
      }
    }
  };

  fan(rounds / 8);  // warm up
  const auto t0 = std::chrono::steady_clock::now();
  fan(rounds);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (auto& lp : loops) {
    EventLoop* raw = lp.get();
    raw->post([raw] { raw->stop(); });
  }
  for (auto& t : threads) t.join();
  return {"fanout4", "posts", rounds * kLoops, wall};
}

}  // namespace

int main() {
  using dl::bench::full_scale;
  namespace bench = dl::bench;

  bench::header("micro_loop", "EventLoop mailbox / wake-path primitives");

  const std::uint64_t posts = full_scale() ? 2'000'000 : 200'000;
  const std::uint64_t rounds = full_scale() ? 200'000 : 20'000;

  std::vector<dl::runner::PerfRow> rows;
  rows.push_back(post_row<LegacyPostPath>("post_spsc_mutex", 1, posts));
  rows.push_back(post_row<MpscPostPath>("post_spsc_mpsc", 1, posts));
  rows.push_back(post_row<LegacyPostPath>("post_mp4_mutex", 4, posts / 4));
  rows.push_back(post_row<MpscPostPath>("post_mp4_mpsc", 4, posts / 4));
  rows.push_back(wake_latency_row(rounds));
  rows.push_back(fanout_row(rounds / 4));

  bench::row({"row", "ops", "wall_s", "Mops/s"});
  for (const auto& r : rows) {
    bench::row({r.name, std::to_string(r.ops), bench::fmt(r.wall_seconds, 3),
                bench::fmt(r.ops_per_sec() / 1e6, 2)});
  }
  const double mutex_mp = rows[2].ops_per_sec();
  const double mpsc_mp = rows[3].ops_per_sec();
  if (mutex_mp > 0) {
    std::printf("multi-producer MPSC/mutex speedup: %.2fx\n",
                mpsc_mp / mutex_mp);
  }

  bench::write_perf("micro_loop", rows);
  return 0;
}
