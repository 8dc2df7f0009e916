// Epoll event loop with timerfd-backed timers and a same-thread task queue.
//
// This is the real-time analogue of sim::EventQueue: a clock that starts
// near zero, ordered timers, and fd readiness callbacks. A replica runs on
// one loop, its home loop, and is one thread. A process may still run
// several loops (a load generator beside in-process replicas, say), and all
// loops in one process share a single clock epoch, so `now()` values taken
// on different loops are directly comparable.
//
// Threading contract: every method is loop-affine — call it from the thread
// that runs the loop, or from any one thread before run() starts / after it
// returns. The loop has no cross-thread entry point; work for a loop is
// posted by code already running on it.
//
//   post()  — appends fn to the task queue; it runs on a later pass, FIFO,
//             never inline. Tasks run one generation per pass: a task
//             posted while the queue drains runs on the next pass, so a
//             self-posting task cannot starve timers or fds.
//   stop()  — requests shutdown. Sticky: a stop() issued before run()
//             makes that run() return immediately instead of being lost.
//             run() consumes the request when it returns, so the loop is
//             re-runnable.
//
// Timers keep the EventQueue contract: a (time, sequence) min-heap ordered
// FIFO among equal deadlines, O(1) cancellation by id, and a single timerfd
// armed to the earliest live deadline so the loop sleeps in epoll_wait
// without polling.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/task.hpp"

namespace dl::obs {
class Histogram;
}  // namespace dl::obs

namespace dl::net {

class EventLoop {
 public:
  EventLoop();  // throws std::runtime_error if epoll/timerfd creation fails
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Seconds since the process clock epoch (CLOCK_MONOTONIC, anchored when
  // the first EventLoop of the process is constructed). Shared across all
  // loops in the process so cross-loop timestamps are comparable.
  double now() const;

  // Timers. `at` is absolute loop time (clamped to now), `after` relative.
  // Ids are never reused; 0 is never returned.
  std::uint64_t at(double t, std::function<void()> fn);
  std::uint64_t after(double delay, std::function<void()> fn);
  // False if the timer already fired or was cancelled.
  bool cancel_timer(std::uint64_t id);

  // Runs `fn` on a later loop pass, FIFO, never inline. Callables up to
  // sim::InlineTask::kInlineBytes (64) that are nothrow-movable are stored
  // in place; larger ones are boxed on the heap.
  template <typename F>
  void post(F&& fn) {
    posted_.emplace_back(std::forward<F>(fn));
  }

  // Fd readiness callbacks (EPOLLIN/EPOLLOUT/... bitmask from epoll).
  using FdHandler = std::function<void(std::uint32_t events)>;
  void add_fd(int fd, std::uint32_t events, FdHandler h);
  void mod_fd(int fd, std::uint32_t events);
  void del_fd(int fd);  // unregister only; does not close

  // Dispatches until stop() is called (returns immediately if a stop is
  // already pending). Consumes the stop request on return, so the loop may
  // be run() again.
  void run();
  void stop() { stop_ = true; }
  // True while a stop request is pending, i.e. from stop() until the run()
  // that observes it returns.
  bool stopped() const { return stop_; }

  // Always-on loop health counters.
  struct LoopStats {
    std::uint64_t polls = 0;   // epoll_wait returns
    std::uint64_t drains = 0;  // task-queue passes that ran tasks
    std::uint64_t tasks = 0;   // posted tasks executed
    std::uint64_t timers = 0;  // timer callbacks fired
    // Tasks run by the most recent drain pass: the queue depth it found.
    std::uint64_t last_drain_tasks = 0;
  };
  const LoopStats& stats() const { return stats_; }

  // Optional callback-latency histogram (microseconds per fd handler /
  // timer callback / drain pass). Set before run() starts. Null (the
  // default) keeps the timing clock reads off entirely.
  void set_task_histogram(obs::Histogram* h) { task_hist_ = h; }

 private:
  void arm_timerfd();
  void run_due_timers();
  void drain_posted();

  int ep_ = -1;
  int tfd_ = -1;
  double t0_ = 0;
  bool stop_ = false;

  struct Due {
    double t;
    std::uint64_t id;  // doubles as FIFO tiebreaker: ids are monotonic
    bool operator>(const Due& o) const {
      if (t != o.t) return t > o.t;
      return id > o.id;
    }
  };
  std::uint64_t next_timer_id_ = 1;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> due_;
  std::unordered_map<std::uint64_t, std::function<void()>> timers_;  // live

  // Each registration gets a generation stamp carried in the epoll event:
  // if an fd is closed and the number reused within one epoll_wait batch,
  // the stale event's generation no longer matches and is discarded.
  struct FdEntry {
    std::uint32_t gen = 0;
    FdHandler handler;
  };
  std::uint32_t next_fd_gen_ = 1;
  std::unordered_map<int, FdEntry> fds_;

  // Task queue: post() appends to posted_; a drain swaps it with running_
  // (both keep their capacity) and runs running_ in order.
  std::vector<sim::InlineTask> posted_;
  std::vector<sim::InlineTask> running_;

  LoopStats stats_;
  obs::Histogram* task_hist_ = nullptr;
};

}  // namespace dl::net
