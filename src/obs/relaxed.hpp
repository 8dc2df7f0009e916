// RelaxedU64 — a copyable relaxed-atomic counter cell.
//
// Stats structs on the client plane (Mempool, Gateway) are written on the
// replica's home loop and read by the admin/metrics plane, which runs on
// the same loop in dlnoded but may be read from any thread (a test, a
// scraper of its own). RelaxedU64 keeps the write side as cheap as a plain
// increment — a relaxed fetch_add compiles to `lock add` with no ordering
// stalls — while making cross-thread reads well-defined.
//
// Copy/assignment snapshot the value, so `Stats s = gateway.stats();` keeps
// working on structs whose fields are RelaxedU64. Individual field reads are
// each atomic; a copied struct is NOT a consistent cross-field snapshot
// (neither was the old plain-field version — these are monitoring counters,
// not invariants).
#pragma once

#include <atomic>
#include <cstdint>

namespace dl::obs {

class RelaxedU64 {
 public:
  RelaxedU64() = default;
  RelaxedU64(std::uint64_t v) : v_(v) {}  // NOLINT: implicit by design
  RelaxedU64(const RelaxedU64& o) : v_(o.load()) {}
  RelaxedU64& operator=(const RelaxedU64& o) {
    store(o.load());
    return *this;
  }
  RelaxedU64& operator=(std::uint64_t v) {
    store(v);
    return *this;
  }

  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  operator std::uint64_t() const { return load(); }  // NOLINT: implicit reads

  RelaxedU64& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedU64& operator--() {
    v_.fetch_sub(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedU64& operator+=(std::uint64_t d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  RelaxedU64& operator-=(std::uint64_t d) {
    v_.fetch_sub(d, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

}  // namespace dl::obs
