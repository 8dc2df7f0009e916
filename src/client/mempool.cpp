#include "client/mempool.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace dl::client {

namespace {

// Fast non-cryptographic payload key: a key match is always confirmed by
// SHA-256, so a collision costs one digest, never a wrong match.
std::uint64_t payload_key(ByteView p) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ p.size();
  std::size_t i = 0;
  for (; i + 8 <= p.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p.data() + i, sizeof w);
    h = (h ^ w) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  std::uint64_t w = 0;
  if (i < p.size()) std::memcpy(&w, p.data() + i, p.size() - i);
  h = (h ^ w) * 0x94D049BB133111EBull;
  return h ^ (h >> 29);
}

}  // namespace

Mempool::Mempool(MempoolOptions opt) : opt_(opt) {
  if (opt_.committed_ring == 0) opt_.committed_ring = 1;
  // Address space only: a page is touched when the first commit lands in
  // it, and the slots are never copied to grow, so peak RSS never holds
  // two copies of the ring.
  committed_.reserve(opt_.committed_ring);
}

AdmitResult Mempool::admit(Bytes payload, double now,
                           std::uint64_t client_nonce,
                           std::uint64_t client_seq, Hash* out_hash) {
  if (payload.size() > opt_.max_tx_bytes) {
    ++stats_.dropped_oversize;
    return AdmitResult::TooLarge;
  }
  // Dedup BEFORE the capacity check: a resubmission of a transaction that
  // is already pending, in flight, or committed must be answered Duplicate/
  // Committed even when the pool is full — a Full verdict is terminal at
  // the client and would make it drop a transaction that still commits.
  const Hash h = sha256(payload);
  if (out_hash != nullptr) *out_hash = h;
  if (find_committed(h) != nullptr) {
    ++stats_.committed_replays;
    return AdmitResult::Committed;
  }
  if (tracked_.contains(h)) {
    ++stats_.dropped_duplicate;
    return AdmitResult::Duplicate;
  }
  if (pending_txs_ >= opt_.max_pending_txs ||
      pending_bytes_ + payload.size() > opt_.max_pending_bytes) {
    ++stats_.dropped_full;
    stats_.dropped_full_bytes += payload.size();
    return AdmitResult::Full;
  }
  ++stats_.admitted;
  stats_.admitted_bytes += payload.size();
  pending_bytes_ += payload.size();
  Entry e;
  e.client_nonce = client_nonce;
  e.client_seq = client_seq;
  e.submit_time = now;
  e.key = payload_key(payload);
  e.seq = next_seq_++;
  e.payload = std::move(payload);
  fifo_.push_back({h, e.seq});
  ++tracked_keys_[e.key];
  tracked_.emplace(h, std::move(e));
  ++pending_txs_;
  return AdmitResult::Admitted;
}

bool Mempool::is_stale(const PendingSlot& slot) const {
  auto it = tracked_.find(slot.hash);
  return it == tracked_.end() || it->second.seq != slot.seq;
}

std::optional<Bytes> Mempool::pop() {
  while (!fifo_.empty()) {
    const PendingSlot slot = fifo_.front();
    fifo_.pop_front();
    auto it = tracked_.find(slot.hash);
    if (it == tracked_.end() || it->second.seq != slot.seq) {
      --stale_slots_;  // committed elsewhere while pending
      continue;
    }
    --pending_txs_;
    Entry& e = it->second;
    e.popped = true;
    pending_bytes_ -= e.payload.size();
    Bytes payload = std::move(e.payload);
    e.payload = Bytes{};
    return payload;
  }
  return std::nullopt;
}

void Mempool::untrack(std::unordered_map<Hash, Entry, HashHasher>::iterator it) {
  auto k = tracked_keys_.find(it->second.key);
  if (--k->second == 0) tracked_keys_.erase(k);
  tracked_.erase(it);
}

std::optional<CommitRecord> Mempool::match_commit(ByteView payload,
                                                  std::uint64_t epoch,
                                                  std::uint32_t proposer,
                                                  double now) {
  if (!tracked_keys_.contains(payload_key(payload))) return std::nullopt;
  const Hash h = sha256(payload);
  auto it = tracked_.find(h);
  if (it == tracked_.end()) return std::nullopt;
  CommitRecord rec;
  rec.client_nonce = it->second.client_nonce;
  rec.client_seq = it->second.client_seq;
  rec.epoch = epoch;
  rec.proposer = proposer;
  rec.submit_time = it->second.submit_time;
  const double lat = now - it->second.submit_time;
  rec.latency_us = lat > 0 ? static_cast<std::uint64_t>(lat * 1e6) : 0;
  // A commit can land while the payload is still pending here (the same
  // payload reached another node's block first): its FIFO slot goes stale
  // so it is not packed a second time.
  const bool was_pending = !it->second.popped;
  if (was_pending) {
    pending_bytes_ -= it->second.payload.size();
    --pending_txs_;
    ++stale_slots_;
  }
  untrack(it);
  ++stats_.committed;
  remember_committed(h, rec);
  if (was_pending && stale_slots_ > fifo_.size() / 2) {
    // Each compaction removes at least half the FIFO: amortized O(1).
    std::erase_if(fifo_, [this](const PendingSlot& s) { return is_stale(s); });
    stale_slots_ = 0;
  }
  return rec;
}

std::optional<CommitRecord> Mempool::committed_record(const Hash& h) const {
  const CommittedSlot* slot = find_committed(h);
  if (slot == nullptr) return std::nullopt;
  return slot->record;
}

void Mempool::seed_committed(const Hash& h, std::uint64_t epoch,
                             std::uint32_t proposer) {
  if (find_committed(h) != nullptr || tracked_.contains(h)) return;
  CommitRecord rec;
  rec.epoch = epoch;
  rec.proposer = proposer;
  remember_committed(h, rec);
  ++stats_.seeded;
}

// Callers never pass a hash already in the ring: match_commit only sees
// tracked hashes, admit() tracks none that is remembered, and
// seed_committed checks both.
void Mempool::remember_committed(const Hash& h, const CommitRecord& record) {
  std::size_t slot;
  if (committed_.size() < opt_.committed_ring) {
    if (2 * (committed_.size() + 1) > index_.size()) grow_index();
    slot = committed_.size();
    committed_.push_back({h, record});
  } else {
    slot = committed_next_;
    index_erase(slot);
    committed_[slot] = {h, record};
    committed_next_ = (committed_next_ + 1) % opt_.committed_ring;
  }
  index_insert(slot);
}

std::size_t Mempool::index_home(const Hash& h) const {
  std::uint64_t word;
  std::memcpy(&word, h.v.data(), sizeof word);
  return static_cast<std::size_t>(word >> index_shift_);
}

const Mempool::CommittedSlot* Mempool::find_committed(const Hash& h) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = index_home(h);; i = (i + 1) & mask) {
    const std::uint32_t e = index_[i];
    if (e == 0) return nullptr;
    if (committed_[e - 1].hash == h) return &committed_[e - 1];
  }
}

void Mempool::index_insert(std::size_t slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = index_home(committed_[slot].hash);
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = static_cast<std::uint32_t>(slot + 1);
}

// Backward-shift deletion: close the hole by moving each later entry of
// the probe run back into it unless that would put the entry before its
// home position, so lookups never need tombstones.
void Mempool::index_erase(std::size_t slot) {
  const std::size_t mask = index_.size() - 1;
  const auto tag = static_cast<std::uint32_t>(slot + 1);
  std::size_t hole = index_home(committed_[slot].hash);
  while (index_[hole] != tag) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; index_[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = index_home(committed_[index_[j] - 1].hash);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
}

void Mempool::grow_index() {
  const std::size_t size = std::max<std::size_t>(16, 2 * index_.size());
  index_.assign(size, 0);
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (std::size_t slot = 0; slot < committed_.size(); ++slot) index_insert(slot);
}

}  // namespace dl::client
