// Mempool — the node-side admission queue of the client ingress plane.
//
// Externally submitted transactions land here before block packing: a FIFO
// of pending payloads with hard count/byte caps, duplicate rejection by
// payload hash, and per-cause drop accounting. A transaction stays tracked
// (by hash) from admission until its payload is observed in a delivered
// block, so the gateway can route exactly one TxCommitted notification back
// to the submitting client and measure the true submit→commit latency on
// the node's clock.
//
// Lifecycle of one transaction:
//
//   admit()        — dedup + caps checked; payload queued FIFO, hash tracked
//   pop()          — oldest pending payload handed to DlNode::submit() for
//                    block packing; the entry stays tracked (in flight)
//   match_commit() — a delivered block contained this payload hash; returns
//                    the origin (client nonce, seq, submit time) exactly
//                    once and moves the hash into a bounded recently-
//                    committed ring so late resubmissions of an already-
//                    committed payload are answered with TxStatus::Committed
//                    instead of being committed twice.
//
// The recently-committed ring is stored flat: `committed_ring` fixed-size
// slots (the hash plus its CommitRecord, 80 bytes) overwritten oldest
// first, and an open-addressing index of u32 slot numbers (linear probing,
// at most half full, backward-shift deletion on eviction) for lookup by
// hash. That is 88 bytes per remembered commit, about 5.5 MiB per mempool
// (one per ingress shard) at the default 65,536 entries, with no allocation
// per commit. The slots are reserved up front but take memory only as
// commits fill them; the index doubles as the ring fills.
//
// Single-threaded like everything else on the node's EventLoop; no locks.
// The stats and depth counters are relaxed atomics (obs::RelaxedU64) so the
// admin/metrics plane can read them live from another thread; all mutation
// still happens on the owning loop.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "obs/relaxed.hpp"

namespace dl::client {

// Admission verdicts, aligned with net::TxStatus (the gateway casts).
enum class AdmitResult : std::uint8_t {
  Admitted = 0,
  Duplicate = 1,  // hash already pending or in flight
  Full = 2,       // pending count/byte cap reached
  TooLarge = 3,   // payload above max_tx_bytes
  Committed = 4,  // hash in the recently-committed ring (replay the commit)
};

struct MempoolOptions {
  std::size_t max_pending_txs = 100'000;
  std::size_t max_pending_bytes = 64u * 1024 * 1024;
  std::size_t max_tx_bytes = 1u * 1024 * 1024;
  // Recently-committed hashes remembered for resubmit-after-commit replay
  // (reconnecting clients whose TxCommitted was lost with the connection).
  std::size_t committed_ring = 1u << 16;
};

// Relaxed-atomic cells: written on the owning loop, readable live from the
// metrics plane (a copied struct is a per-field snapshot — see relaxed.hpp).
struct MempoolStats {
  obs::RelaxedU64 admitted;
  obs::RelaxedU64 admitted_bytes;
  obs::RelaxedU64 dropped_duplicate;
  obs::RelaxedU64 dropped_full;
  obs::RelaxedU64 dropped_full_bytes;
  obs::RelaxedU64 dropped_oversize;
  obs::RelaxedU64 committed;  // matched to a delivered block
  obs::RelaxedU64 committed_replays;
  obs::RelaxedU64 seeded;  // ring entries restored from the ledger store
};

// Everything the gateway needs to notify the submitting client of a
// commit; also kept in the recently-committed ring for idempotent replay.
struct CommitRecord {
  std::uint64_t client_nonce = 0;
  std::uint64_t client_seq = 0;
  std::uint64_t epoch = 0;
  std::uint32_t proposer = 0;
  std::uint64_t latency_us = 0;  // node-clock submit→commit
  double submit_time = 0;        // admit-time stamp (for stage breakdowns)
};

class Mempool {
 public:
  explicit Mempool(MempoolOptions opt = {});

  // Admission control. On Admitted the payload is queued and its hash
  // tracked; every other verdict leaves the pool unchanged (and counts the
  // drop). Duplicate/Committed are decided before the capacity caps, so a
  // resubmission is never misreported as Full (Full is terminal at the
  // client). `now` is the node's clock, stamped as the tx's submit time.
  // `out_hash`, when non-null, receives the payload hash (not computed for
  // TooLarge, which is decided on size alone).
  AdmitResult admit(Bytes payload, double now, std::uint64_t client_nonce,
                    std::uint64_t client_seq, Hash* out_hash = nullptr);

  // Block-packing source: oldest pending payload, or nullopt when drained.
  // The entry stays tracked until match_commit sees its hash.
  std::optional<Bytes> pop();

  // Called for every transaction of every delivered block. The first time a
  // tracked hash is seen, computes the full commit record (owner, latency
  // from the admit-time stamp to `now`), moves the hash into the committed
  // ring, and returns the record. nullopt otherwise (not ours / already
  // matched — exactly-once).
  std::optional<CommitRecord> match_commit(const Hash& h, std::uint64_t epoch,
                                           std::uint32_t proposer, double now);

  // The replayable commit for an already-committed hash (AdmitResult::
  // Committed from admit), if still in the ring.
  std::optional<CommitRecord> committed_record(const Hash& h) const;

  // Restart recovery: pre-populate the committed ring from the ledger store
  // before serving clients, so a payload committed before the crash is
  // answered Committed instead of being admitted (and committed) twice. The
  // origin client and submit stamp were lost with the process; the seeded
  // record carries zeros for them. No-op if the hash is already known.
  void seed_committed(const Hash& h, std::uint64_t epoch,
                      std::uint32_t proposer);

  // Depth gauges mirror fifo_/tracked_ through relaxed atomics so they are
  // readable from off-loop scrapers while the shard keeps running.
  std::size_t pending_txs() const { return pending_txs_.load(); }
  std::size_t pending_bytes() const { return pending_bytes_.load(); }
  std::size_t tracked_txs() const { return tracked_txs_.load(); }
  const MempoolStats& stats() const { return stats_; }
  const MempoolOptions& options() const { return opt_; }

 private:
  struct Entry {
    Bytes payload;  // moved out by pop(); empty while in flight
    std::uint64_t client_nonce = 0;
    std::uint64_t client_seq = 0;
    double submit_time = 0;
    bool popped = false;
  };

  // One remembered commit: the hash and the record replayed for it.
  struct CommittedSlot {
    Hash hash;
    CommitRecord record;
  };

  void remember_committed(const Hash& h, const CommitRecord& record);
  // The slot remembering `h`, or nullptr.
  const CommittedSlot* find_committed(const Hash& h) const;
  std::size_t index_home(const Hash& h) const;
  void index_insert(std::size_t slot);
  void index_erase(std::size_t slot);
  void grow_index();

  MempoolOptions opt_;
  std::deque<Hash> fifo_;  // pending order (hashes into tracked_)
  std::unordered_map<Hash, Entry, HashHasher> tracked_;
  obs::RelaxedU64 pending_txs_;   // == fifo_.size()
  obs::RelaxedU64 pending_bytes_;
  obs::RelaxedU64 tracked_txs_;   // == tracked_.size()
  // Bounded ring of recently committed hashes + their commit records, in
  // commit order; once full, committed_next_ is the oldest (next evicted).
  std::vector<CommittedSlot> committed_;
  std::size_t committed_next_ = 0;
  // Open-addressing index into committed_: slot + 1, 0 for empty. Its size
  // is a power of two, at least twice committed_.size(); index_shift_ is
  // 64 - log2(size), so a hash's home position is the top bits of its
  // first word.
  std::vector<std::uint32_t> index_;
  unsigned index_shift_ = 64;
  MempoolStats stats_;
};

}  // namespace dl::client
