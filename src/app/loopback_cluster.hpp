// LoopbackCluster — N app::Replicas of one cluster on one shared event loop
// over loopback TCP, for in-process tests and benches.
//
// Every replica binds ephemeral ports; the cluster cross-wires the real
// peer ports before anything starts, so the tests stay single-threaded and
// deterministic to schedule while every byte still crosses a kernel socket.
// The cluster owns its loop and declares it first, so the loop outlives
// every replica (a replica cannot be torn down under a running loop; see
// app/replica.hpp). To restart a cluster, destroy it and build a new one on
// the same store directories.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "app/replica.hpp"

namespace dl::app {

// n nodes on 127.0.0.1, f = (n-1)/3, every port 0 (picked at bind time).
inline net::ClusterConfig loopback_config(int n) {
  net::ClusterConfig cfg;
  cfg.n = n;
  cfg.f = (n - 1) / 3;
  for (int i = 0; i < n; ++i) cfg.nodes.push_back({i, "127.0.0.1", 0, 0});
  return cfg;
}

class LoopbackCluster {
 public:
  // Builds replica i from options(i) (its id is set here) and cross-wires
  // the peer ports. Nothing starts until start().
  LoopbackCluster(const net::ClusterConfig& cfg,
                  const std::function<ReplicaOptions(int id)>& options) {
    for (int i = 0; i < cfg.n; ++i) {
      ReplicaOptions opt = options(i);
      opt.id = i;
      replicas_.push_back(std::make_unique<Replica>(loop_, cfg, std::move(opt)));
    }
    for (auto& r : replicas_) {
      for (int j = 0; j < cfg.n; ++j) {
        r->env().set_peer_port(j, (*this)[j].env().listen_port());
      }
    }
  }
  // Every replica with the same options.
  LoopbackCluster(int n, const ReplicaOptions& options)
      : LoopbackCluster(loopback_config(n),
                        [&options](int) { return options; }) {}

  net::EventLoop& loop() { return loop_; }
  int size() const { return static_cast<int>(replicas_.size()); }
  Replica& operator[](int i) { return *replicas_[static_cast<std::size_t>(i)]; }

  // Starts every replica, without a recovery callback.
  void start() {
    for (auto& r : replicas_) r->start();
  }

  // Runs the loop until `done` holds (polled every 10 ms) or `watchdog`
  // seconds pass. False on timeout. Leaves no timer behind, so it may be
  // called again.
  bool run_until(const std::function<bool()>& done, double watchdog = 30.0) {
    bool timed_out = false;
    std::uint64_t poll_timer = 0;
    std::function<void()> poll = [&] {
      if (done()) {
        loop_.stop();
        return;
      }
      poll_timer = loop_.after(0.01, poll);
    };
    poll_timer = loop_.after(0.01, poll);
    const std::uint64_t watchdog_timer = loop_.after(watchdog, [&] {
      timed_out = true;
      loop_.stop();
    });
    loop_.run();
    loop_.cancel_timer(poll_timer);
    loop_.cancel_timer(watchdog_timer);
    return !timed_out;
  }

 private:
  net::EventLoop loop_;
  std::vector<std::unique_ptr<Replica>> replicas_;
};

}  // namespace dl::app
