// micro_loop — the event loop's task queue, on the path a replica uses.
//
// A replica is one thread, and EventLoop::post is how code running on the
// loop schedules work for a later pass of the same loop. This bench pins
// the cost of that path through the real EventLoop::run():
//
//   post_self        a loop task posts 48-byte closures to its own loop,
//                    four per pass, then re-posts itself; each pass also
//                    pays the loop's non-blocking epoll_wait. 48 bytes fit
//                    InlineTask's 64-byte inline storage: no allocation.
//   post_self_heap   the same with 96-byte closures, which outgrow the
//                    inline storage and take the heap path.
//
// Rows are dl-perf-v1 (BENCH_micro_loop.{json,csv}); see docs/PERF.md,
// "The loop mailbox". Uses only post(), run() and stop(), so the same
// source measures any EventLoop behind that interface.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/event_loop.hpp"
#include "runner/report.hpp"

namespace {

using dl::net::EventLoop;

constexpr int kPostsPerPass = 4;

// `Words` words of captured state plus the counter pointer: 48 bytes with
// five words, 96 with eleven.
template <int Words>
struct Payload {
  std::uint64_t w[Words] = {};
  std::uint64_t* sink = nullptr;
};
static_assert(sizeof(Payload<5>) == 48 && sizeof(Payload<11>) == 96);

// Posts `posts` closures from inside the loop, kPostsPerPass per pass, and
// returns the wall seconds run() took to run them all.
template <int Words>
double run_post_self(std::uint64_t posts) {
  EventLoop loop;
  std::uint64_t ran = 0;
  std::uint64_t posted = 0;
  std::function<void()> pass = [&] {
    Payload<Words> pay;
    pay.sink = &ran;
    for (int i = 0; i < kPostsPerPass && posted < posts; ++i, ++posted) {
      pay.w[0] = posted;
      loop.post([pay] { ++*pay.sink; });
    }
    if (posted < posts) {
      loop.post([&pass] { pass(); });
    } else {
      loop.post([&loop] { loop.stop(); });
    }
  };
  loop.post([&pass] { pass(); });
  const auto t0 = std::chrono::steady_clock::now();
  loop.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (ran != posts) {
    std::fprintf(stderr, "micro_loop: ran %llu of %llu posts\n",
                 static_cast<unsigned long long>(ran),
                 static_cast<unsigned long long>(posts));
  }
  return wall;
}

template <int Words>
dl::runner::PerfRow post_self_row(const std::string& name,
                                  std::uint64_t posts) {
  run_post_self<Words>(posts / 4);  // warm up
  return {name, "posts", posts, run_post_self<Words>(posts)};
}

}  // namespace

int main() {
  using dl::bench::full_scale;
  namespace bench = dl::bench;

  bench::header("micro_loop", "EventLoop same-thread task queue");

  const std::uint64_t posts = full_scale() ? 20'000'000 : 2'000'000;

  std::vector<dl::runner::PerfRow> rows;
  rows.push_back(post_self_row<5>("post_self", posts));
  rows.push_back(post_self_row<11>("post_self_heap", posts));

  bench::row({"row", "ops", "wall_s", "Mops/s"});
  for (const auto& r : rows) {
    bench::row({r.name, std::to_string(r.ops), bench::fmt(r.wall_seconds, 3),
                bench::fmt(r.ops_per_sec() / 1e6, 2)});
  }

  bench::write_perf("micro_loop", rows);
  return 0;
}
