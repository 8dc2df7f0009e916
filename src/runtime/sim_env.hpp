// Simulator backend of runtime::Env.
//
// One SimEnv per node: it registers itself as the node's sim::Host on the
// Simulator (so start() fires at virtual time 0 and incoming sim::Messages
// are unwrapped into Receiver::on_receive) and forwards sends/timers to the
// existing Network/EventQueue unchanged — a node running through SimEnv
// schedules the exact same events, in the same order, as the pre-abstraction
// code did. Sweep JSON is byte-identical either way (tests assert this).
//
// Threading: the simulator is single-threaded, so the Env contract is
// implemented trivially — the "home loop" is the simulation thread and
// defer() is an EventQueue task at the current virtual time.
#pragma once

#include "runtime/env.hpp"
#include "sim/simulator.hpp"

namespace dl::runtime {

class SimEnv final : public Env, public sim::Host {
 public:
  // Registers itself as node `id`; the Receiver attached afterwards is
  // started when the simulation starts.
  SimEnv(sim::Simulator& sim, int id);

  // Injects the receiver. Call exactly once, before the simulation runs.
  void attach(Receiver& r) { receiver_ = &r; }

  // --- Env ----------------------------------------------------------------
  int local_id() const override { return id_; }
  int cluster_size() const override { return net_.size(); }
  double now() const override { return eq_.now(); }
  TimerId at(double t, std::function<void()> fn) override;
  TimerId after(double delay, std::function<void()> fn) override;
  bool cancel_timer(TimerId id) override;
  void send(int to, const Envelope& env, const SendOpts& opts) override;
  void broadcast(const Envelope& env, const SendOpts& opts) override;
  void cancel_send(std::uint64_t tag) override;
  void defer(std::function<void()> fn) override;

  // --- sim::Host ----------------------------------------------------------
  void start() override;
  void on_message(sim::Message&& m) override;

 private:
  static TimerId pack(sim::TimerHandle h);
  static sim::TimerHandle unpack(TimerId id);
  static sim::Priority to_sim(TrafficClass cls) {
    return cls == TrafficClass::Low ? sim::Priority::Low : sim::Priority::High;
  }

  sim::EventQueue& eq_;
  sim::Network& net_;
  int id_;
  Receiver* receiver_ = nullptr;
};

}  // namespace dl::runtime
