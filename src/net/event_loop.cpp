#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"

namespace dl::net {

namespace {

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// All loops in a process share one clock epoch (anchored by whichever loop
// is constructed first) so timestamps taken on different loops compare.
double process_epoch() {
  static const double t0 = monotonic_seconds();
  return t0;
}

std::uint64_t pack_fd(int fd, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         static_cast<std::uint32_t>(fd);
}

}  // namespace

EventLoop::EventLoop() {
  ep_ = epoll_create1(EPOLL_CLOEXEC);
  if (ep_ < 0) throw std::runtime_error("EventLoop: epoll_create1 failed");
  tfd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (tfd_ < 0) {
    close(ep_);
    throw std::runtime_error("EventLoop: timerfd_create failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = pack_fd(tfd_, 0);
  if (epoll_ctl(ep_, EPOLL_CTL_ADD, tfd_, &ev) != 0) {
    close(tfd_);
    close(ep_);
    throw std::runtime_error("EventLoop: cannot register timerfd");
  }
  t0_ = process_epoch();
}

EventLoop::~EventLoop() {
  if (tfd_ >= 0) close(tfd_);
  if (ep_ >= 0) close(ep_);
}

double EventLoop::now() const { return monotonic_seconds() - t0_; }

std::uint64_t EventLoop::at(double t, std::function<void()> fn) {
  const double when = t < 0 ? 0 : t;
  const std::uint64_t id = next_timer_id_++;
  timers_.emplace(id, std::move(fn));
  due_.push(Due{when, id});
  return id;
}

std::uint64_t EventLoop::after(double delay, std::function<void()> fn) {
  return at(now() + (delay > 0 ? delay : 0), std::move(fn));
}

bool EventLoop::cancel_timer(std::uint64_t id) {
  // The heap entry stays behind as a tombstone; run_due_timers skips it.
  return timers_.erase(id) > 0;
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdHandler h) {
  const std::uint32_t gen = next_fd_gen_++;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = pack_fd(fd, gen);
  if (epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error("EventLoop: epoll_ctl ADD failed");
  }
  fds_[fd] = FdEntry{gen, std::move(h)};
}

void EventLoop::mod_fd(int fd, std::uint32_t events) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = pack_fd(fd, it->second.gen);
  if (epoll_ctl(ep_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw std::runtime_error("EventLoop: epoll_ctl MOD failed");
  }
}

void EventLoop::del_fd(int fd) {
  epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr);
  fds_.erase(fd);
}

void EventLoop::run_due_timers() {
  const double t = now();
  while (!due_.empty() && due_.top().t <= t) {
    const std::uint64_t id = due_.top().id;
    due_.pop();
    auto it = timers_.find(id);
    if (it == timers_.end()) continue;  // cancelled tombstone
    auto fn = std::move(it->second);
    timers_.erase(it);
    ++stats_.timers;
    if (task_hist_ != nullptr) {
      const double start = monotonic_seconds();
      fn();
      task_hist_->observe(
          static_cast<std::uint64_t>((monotonic_seconds() - start) * 1e6));
    } else {
      fn();
    }
  }
}

void EventLoop::arm_timerfd() {
  itimerspec spec{};
  if (!due_.empty()) {
    // Earliest live deadline in absolute CLOCK_MONOTONIC time. A deadline
    // already past arms 1 ns ahead — zero would disarm the timer.
    const double abs_t = due_.top().t + t0_;
    const double now_abs = monotonic_seconds();
    const double target = abs_t > now_abs ? abs_t : now_abs;
    spec.it_value.tv_sec = static_cast<time_t>(target);
    spec.it_value.tv_nsec =
        static_cast<long>((target - std::floor(target)) * 1e9);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;
    }
  }
  timerfd_settime(tfd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

void EventLoop::drain_posted() {
  if (posted_.empty()) return;
  // One generation per pass: tasks these tasks post land in posted_ and
  // run on the next pass.
  running_.swap(posted_);
  const bool timed = task_hist_ != nullptr;
  const double start = timed ? monotonic_seconds() : 0.0;
  for (sim::InlineTask& task : running_) task();
  const std::size_t ran = running_.size();
  running_.clear();
  ++stats_.drains;
  stats_.tasks += ran;
  stats_.last_drain_tasks = ran;
  if (timed) {
    task_hist_->observe(
        static_cast<std::uint64_t>((monotonic_seconds() - start) * 1e6));
  }
}

void EventLoop::run() {
  // stop_ is deliberately NOT reset here: a stop() issued before run() must
  // make this run() return immediately instead of being lost. The pending
  // request is consumed on exit (below) so the loop can be run() again.
  epoll_event evs[64];
  while (!stop_) {
    drain_posted();
    if (stop_) break;
    run_due_timers();
    if (stop_) break;
    arm_timerfd();
    // Posted work wants an immediate pass; otherwise sleep until an fd or
    // the timerfd fires.
    const int timeout = posted_.empty() ? -1 : 0;
    const int nev = epoll_wait(ep_, evs, 64, timeout);
    ++stats_.polls;
    if (nev < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("EventLoop: epoll_wait failed");
    }
    for (int i = 0; i < nev && !stop_; ++i) {
      const int fd = static_cast<int>(evs[i].data.u64 & 0xFFFFFFFFu);
      const auto gen = static_cast<std::uint32_t>(evs[i].data.u64 >> 32);
      if (fd == tfd_) {
        std::uint64_t expirations = 0;
        while (read(tfd_, &expirations, sizeof expirations) > 0) {
        }
        run_due_timers();
        continue;
      }
      auto it = fds_.find(fd);
      // Deleted earlier in this batch — or deleted AND re-added with a
      // reused fd number (generation mismatch): either way the event is
      // stale and must not reach the new owner.
      if (it == fds_.end() || it->second.gen != gen) continue;
      // Copy: the handler may del_fd itself (closing a connection).
      FdHandler h = it->second.handler;
      if (task_hist_ != nullptr) {
        const double start = monotonic_seconds();
        h(evs[i].events);
        task_hist_->observe(
            static_cast<std::uint64_t>((monotonic_seconds() - start) * 1e6));
      } else {
        h(evs[i].events);
      }
    }
  }
  // Consume the stop request: the loop is re-runnable once run() returns.
  stop_ = false;
}

}  // namespace dl::net
