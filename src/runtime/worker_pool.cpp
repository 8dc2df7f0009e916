#include "runtime/worker_pool.hpp"

#include <pthread.h>

#include <string>
#include <utility>

namespace dl::runtime {

WorkerPool::WorkerPool(int threads) {
  const int n = threads < 1 ? 1 : threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_main(); });
    pthread_setname_np(workers_.back().native_handle(),
                       ("worker" + std::to_string(i)).c_str());
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void WorkerPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void WorkerPool::worker_main() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

}  // namespace dl::runtime
