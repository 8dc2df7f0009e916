// Mempool admission semantics: FIFO order, count/byte caps, duplicate-hash
// rejection, drop accounting, and exactly-once commit matching with the
// recently-committed replay ring.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "client/mempool.hpp"

// Every allocation in this binary is counted, so a test can show that a
// code path allocates nothing.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dl::client {
namespace {

Bytes tx(const std::string& s) { return bytes_of(s); }

TEST(Mempool, FifoOrderAndPopTracking) {
  Mempool mp;
  EXPECT_EQ(mp.admit(tx("a"), 1.0, 7, 1), AdmitResult::Admitted);
  EXPECT_EQ(mp.admit(tx("b"), 1.1, 7, 2), AdmitResult::Admitted);
  EXPECT_EQ(mp.admit(tx("c"), 1.2, 8, 1), AdmitResult::Admitted);
  EXPECT_EQ(mp.pending_txs(), 3u);
  EXPECT_EQ(mp.pending_bytes(), 3u);
  EXPECT_EQ(mp.tracked_txs(), 3u);

  EXPECT_EQ(to_string(ByteView(*mp.pop())), "a");
  EXPECT_EQ(to_string(ByteView(*mp.pop())), "b");
  EXPECT_EQ(to_string(ByteView(*mp.pop())), "c");
  EXPECT_FALSE(mp.pop().has_value());
  // Popped transactions stay tracked (in flight) until committed.
  EXPECT_EQ(mp.pending_txs(), 0u);
  EXPECT_EQ(mp.tracked_txs(), 3u);
}

TEST(Mempool, DuplicateRejectedWhilePendingOrInFlight) {
  Mempool mp;
  EXPECT_EQ(mp.admit(tx("dup"), 1.0, 1, 1), AdmitResult::Admitted);
  // Pending duplicate.
  EXPECT_EQ(mp.admit(tx("dup"), 1.1, 2, 9), AdmitResult::Duplicate);
  // In-flight duplicate (popped but not committed).
  ASSERT_TRUE(mp.pop().has_value());
  EXPECT_EQ(mp.admit(tx("dup"), 1.2, 3, 5), AdmitResult::Duplicate);
  EXPECT_EQ(mp.stats().dropped_duplicate, 2u);
  EXPECT_EQ(mp.stats().admitted, 1u);
}

TEST(Mempool, CountCapWithDropAccounting) {
  MempoolOptions opt;
  opt.max_pending_txs = 2;
  Mempool mp(opt);
  EXPECT_EQ(mp.admit(tx("1"), 0, 1, 1), AdmitResult::Admitted);
  EXPECT_EQ(mp.admit(tx("2"), 0, 1, 2), AdmitResult::Admitted);
  EXPECT_EQ(mp.admit(tx("3"), 0, 1, 3), AdmitResult::Full);
  EXPECT_EQ(mp.stats().dropped_full, 1u);
  EXPECT_EQ(mp.stats().dropped_full_bytes, 1u);
  // Popping frees a pending slot (the cap is on the queue, not in-flight).
  ASSERT_TRUE(mp.pop().has_value());
  EXPECT_EQ(mp.admit(tx("3"), 0, 1, 3), AdmitResult::Admitted);
}

TEST(Mempool, ResubmitsDecidedBeforeCapacity) {
  // A reconnecting client resubmits while the pool is full: the verdict
  // must be Duplicate/Committed (non-terminal), never Full — a Full ack
  // makes the client forget a transaction that still commits.
  MempoolOptions opt;
  opt.max_pending_txs = 1;
  Mempool mp(opt);
  EXPECT_EQ(mp.admit(tx("inflight"), 0, 1, 1), AdmitResult::Admitted);
  EXPECT_EQ(mp.admit(tx("other"), 0, 1, 2), AdmitResult::Full);
  EXPECT_EQ(mp.admit(tx("inflight"), 0, 1, 1), AdmitResult::Duplicate);
  ASSERT_TRUE(mp.pop().has_value());
  ASSERT_TRUE(mp.match_commit(tx("inflight"), 2, 0, 1.0).has_value());
  EXPECT_EQ(mp.admit(tx("filler"), 0, 1, 3), AdmitResult::Admitted);  // full again
  EXPECT_EQ(mp.admit(tx("inflight"), 0, 1, 1), AdmitResult::Committed);
}

TEST(Mempool, ByteCapWithDropAccounting) {
  MempoolOptions opt;
  opt.max_pending_bytes = 10;
  Mempool mp(opt);
  EXPECT_EQ(mp.admit(Bytes(6, 0x11), 0, 1, 1), AdmitResult::Admitted);
  EXPECT_EQ(mp.admit(Bytes(6, 0x22), 0, 1, 2), AdmitResult::Full);
  EXPECT_EQ(mp.stats().dropped_full_bytes, 6u);
  EXPECT_EQ(mp.admit(Bytes(4, 0x33), 0, 1, 3), AdmitResult::Admitted);
  EXPECT_EQ(mp.pending_bytes(), 10u);
}

TEST(Mempool, OversizeRejected) {
  MempoolOptions opt;
  opt.max_tx_bytes = 8;
  Mempool mp(opt);
  EXPECT_EQ(mp.admit(Bytes(9, 0), 0, 1, 1), AdmitResult::TooLarge);
  EXPECT_EQ(mp.stats().dropped_oversize, 1u);
  EXPECT_EQ(mp.admit(Bytes(8, 0), 0, 1, 2), AdmitResult::Admitted);
}

TEST(Mempool, CommitMatchingIsExactlyOnceWithLatency) {
  Mempool mp;
  const Bytes payload = tx("commit-me");
  EXPECT_EQ(mp.admit(payload, 2.0, 42, 17), AdmitResult::Admitted);
  ASSERT_TRUE(mp.pop().has_value());

  const Hash h = sha256(payload);
  auto rec = mp.match_commit(payload, 5, 3, 2.25);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->client_nonce, 42u);
  EXPECT_EQ(rec->client_seq, 17u);
  EXPECT_EQ(rec->epoch, 5u);
  EXPECT_EQ(rec->proposer, 3u);
  EXPECT_EQ(rec->latency_us, 250'000u);
  EXPECT_EQ(mp.tracked_txs(), 0u);
  EXPECT_EQ(mp.stats().committed, 1u);
  EXPECT_TRUE(mp.committed_record(h).has_value());

  // Second sighting of the same payload: not ours anymore.
  EXPECT_FALSE(mp.match_commit(payload, 6, 0, 2.5).has_value());
  // Foreign hash: never ours.
  EXPECT_FALSE(mp.match_commit(tx("other"), 5, 0, 2.5).has_value());
}

TEST(Mempool, ResubmitAfterCommitIsReplayedNotReadmitted) {
  Mempool mp;
  const Bytes payload = tx("replayed");
  EXPECT_EQ(mp.admit(payload, 1.0, 9, 4), AdmitResult::Admitted);
  ASSERT_TRUE(mp.pop().has_value());
  ASSERT_TRUE(mp.match_commit(payload, 11, 2, 1.5).has_value());

  // The client resubmits (it lost the notification): the pool must answer
  // Committed and expose the stored record — never commit twice.
  Hash h;
  EXPECT_EQ(mp.admit(payload, 2.0, 9, 4, &h), AdmitResult::Committed);
  EXPECT_EQ(mp.stats().committed_replays, 1u);
  auto rec = mp.committed_record(h);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->epoch, 11u);
  EXPECT_EQ(rec->client_seq, 4u);
  EXPECT_EQ(mp.pending_txs(), 0u);
}

TEST(Mempool, CommitOfStillPendingPayloadDropsQueueSlot) {
  // The same payload committed via another node's block while still queued
  // here: the pending copy must leave the FIFO so it is not packed again.
  Mempool mp;
  const Bytes payload = tx("raced");
  EXPECT_EQ(mp.admit(tx("first"), 0, 1, 1), AdmitResult::Admitted);
  EXPECT_EQ(mp.admit(payload, 0, 1, 2), AdmitResult::Admitted);
  ASSERT_TRUE(mp.match_commit(payload, 3, 1, 1.0).has_value());
  EXPECT_EQ(mp.pending_txs(), 1u);
  EXPECT_EQ(to_string(ByteView(*mp.pop())), "first");
  EXPECT_FALSE(mp.pop().has_value());
}

// A client that sends the same payloads to several replicas sees most of
// them commit in another replica's block while still pending here. With
// 100k pending entries each such commit must stay O(1), and the FIFO must
// pop exactly the payloads still pending, in admission order, once each —
// also after a committed hash falls out of the ring and is admitted again.
TEST(Mempool, CommitsOfPendingPayloadsMatchReferenceModel) {
  MempoolOptions opt;
  opt.committed_ring = 64;  // small, so committed hashes get re-admitted
  Mempool mp(opt);
  std::mt19937_64 rng(20261019);

  // Reference model: every admission in order, whether it is still
  // pending, and the pending ones in a vector for O(1) random picks.
  std::vector<Bytes> admitted;
  std::vector<bool> pending;
  std::vector<std::size_t> live;      // indices into `admitted`
  std::vector<std::size_t> live_pos;  // admission -> its index in `live`
  std::size_t front = 0;              // oldest admission that may be pending
  std::vector<Bytes> committed;       // re-admittable once evicted
  auto model_admit = [&](Bytes p) {
    live_pos.push_back(live.size());
    live.push_back(admitted.size());
    pending.push_back(true);
    admitted.push_back(std::move(p));
  };
  auto model_remove = [&](std::size_t a) {
    pending[a] = false;
    const std::size_t at = live_pos[a];
    live[at] = live.back();
    live_pos[live[at]] = at;
    live.pop_back();
    committed.push_back(admitted[a]);
  };
  auto model_front = [&]() -> std::optional<std::size_t> {
    while (front < admitted.size() && !pending[front]) ++front;
    if (front == admitted.size()) return std::nullopt;
    return front;
  };
  std::uint64_t next = 0;
  auto fresh = [&next] { return tx("pending-" + std::to_string(next++)); };

  for (int i = 0; i < 100'000; ++i) {
    Bytes p = fresh();
    ASSERT_EQ(mp.admit(p, 0, 1, static_cast<std::uint64_t>(i)), AdmitResult::Admitted);
    model_admit(std::move(p));
  }
  ASSERT_EQ(mp.pending_txs(), 100'000u);

  for (int step = 0; step < 200'000; ++step) {
    const unsigned op = rng() % 10;
    if (op < 5 && !live.empty()) {
      // Cross-replica commit of a random pending payload.
      const std::size_t a = live[rng() % live.size()];
      ASSERT_TRUE(mp.match_commit(admitted[a], 1, 2, 1.0).has_value()) << step;
      EXPECT_FALSE(mp.match_commit(admitted[a], 1, 2, 1.0).has_value());
      model_remove(a);
    } else if (op < 7) {
      auto got = mp.pop();
      const auto want = model_front();
      ASSERT_EQ(got.has_value(), want.has_value()) << step;
      if (!got) continue;
      ASSERT_EQ(*got, admitted[*want]) << step;
      // Popped payloads commit in our own block.
      ASSERT_TRUE(mp.match_commit(*got, 1, 0, 1.0).has_value());
      model_remove(*want);
    } else if (op < 8 && !committed.empty()) {
      // Resubmission of a committed payload: replayed while the ring
      // remembers it, admitted afresh once it was evicted.
      const std::size_t k = rng() % committed.size();
      const AdmitResult r = mp.admit(committed[k], 0, 1, 1);
      ASSERT_TRUE(r == AdmitResult::Committed || r == AdmitResult::Admitted);
      if (r == AdmitResult::Admitted) {
        model_admit(std::move(committed[k]));
        committed[k] = std::move(committed.back());
        committed.pop_back();
      }
    } else if (op < 9) {
      Bytes p = fresh();
      ASSERT_EQ(mp.admit(p, 0, 1, 1), AdmitResult::Admitted);
      model_admit(std::move(p));
    } else {
      EXPECT_FALSE(mp.match_commit(fresh(), 1, 2, 1.0).has_value());
    }
    ASSERT_EQ(mp.pending_txs(), live.size()) << step;
  }
  for (auto want = model_front(); want.has_value(); want = model_front()) {
    auto got = mp.pop();
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, admitted[*want]);
    pending[*want] = false;
  }
  EXPECT_FALSE(mp.pop().has_value());
  EXPECT_EQ(mp.pending_bytes(), 0u);
}

TEST(Mempool, CommittedRingEvictsOldestRecords) {
  MempoolOptions opt;
  opt.committed_ring = 2;
  Mempool mp(opt);
  Bytes p1 = tx("r1"), p2 = tx("r2"), p3 = tx("r3");
  for (const Bytes* p : {&p1, &p2, &p3}) {
    ASSERT_EQ(mp.admit(*p, 0, 1, 1), AdmitResult::Admitted);
    ASSERT_TRUE(mp.pop().has_value());
    ASSERT_TRUE(mp.match_commit(*p, 1, 0, 1.0).has_value());
  }
  // r1 was evicted by r3; r2 and r3 still replay.
  EXPECT_EQ(mp.admit(p1, 0, 1, 1), AdmitResult::Admitted);  // forgotten
  EXPECT_EQ(mp.admit(p2, 0, 1, 2), AdmitResult::Committed);
  EXPECT_EQ(mp.admit(p3, 0, 1, 3), AdmitResult::Committed);
}

void expect_same_record(const CommitRecord& got, const CommitRecord& want) {
  EXPECT_EQ(got.client_nonce, want.client_nonce);
  EXPECT_EQ(got.client_seq, want.client_seq);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.proposer, want.proposer);
  EXPECT_EQ(got.latency_us, want.latency_us);
  EXPECT_EQ(got.submit_time, want.submit_time);
}

// Drives a mix of matched commits, restart seeds and re-commits of evicted
// payloads through rings of every size from 1 to 100, against a model that
// keeps the last `committed_ring` commits in a deque. After every step each
// remembered hash replays exactly its record and each evicted one is gone;
// at the end every evicted payload is admitted afresh.
TEST(Mempool, CommittedRingMatchesReferenceModel) {
  std::mt19937_64 rng(20260601);
  for (std::size_t ring = 1; ring <= 100; ++ring) {
    SCOPED_TRACE("committed_ring=" + std::to_string(ring));
    MempoolOptions opt;
    opt.committed_ring = ring;
    Mempool mp(opt);
    std::deque<std::pair<Bytes, CommitRecord>> model;  // oldest first
    std::vector<Bytes> evicted;
    const std::size_t steps = 3 * ring + 20;
    for (std::size_t step = 0; step < steps; ++step) {
      const std::uint64_t epoch = rng() % 1000;
      const auto proposer = static_cast<std::uint32_t>(rng() % 16);
      const unsigned pick = rng() % 10;
      Bytes payload;
      CommitRecord want;
      if (pick < 2 && !evicted.empty()) {
        // Re-commit a forgotten payload: it must be admitted again.
        const std::size_t k = rng() % evicted.size();
        payload = evicted[k];
        evicted.erase(evicted.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        payload = tx("ring-" + std::to_string(ring) + "-" + std::to_string(step));
      }
      const Hash h = sha256(payload);
      if (pick < 7) {
        const std::uint64_t nonce = rng(), seq = rng() % 100'000;
        const double submit = static_cast<double>(step);
        ASSERT_EQ(mp.admit(payload, submit, nonce, seq), AdmitResult::Admitted);
        if (rng() % 2 == 0) {
          ASSERT_TRUE(mp.pop().has_value());
        }
        auto rec = mp.match_commit(payload, epoch, proposer, submit + 0.5);
        ASSERT_TRUE(rec.has_value());
        want.client_nonce = nonce;
        want.client_seq = seq;
        want.submit_time = submit;
        want.latency_us = 500'000;
        want.epoch = epoch;
        want.proposer = proposer;
        expect_same_record(*rec, want);
      } else {
        mp.seed_committed(h, epoch, proposer);
        want.epoch = epoch;
        want.proposer = proposer;
      }
      model.emplace_back(payload, want);
      if (model.size() > ring) {
        evicted.push_back(std::move(model.front().first));
        model.pop_front();
      }
      for (const auto& [p, rec] : model) {
        auto got = mp.committed_record(sha256(p));
        ASSERT_TRUE(got.has_value());
        expect_same_record(*got, rec);
      }
      for (const Bytes& p : evicted) {
        ASSERT_FALSE(mp.committed_record(sha256(p)).has_value());
      }
    }
    for (const auto& [p, rec] : model) {
      EXPECT_EQ(mp.admit(p, 0, 1, 1), AdmitResult::Committed);
    }
    for (const Bytes& p : evicted) {
      EXPECT_EQ(mp.admit(p, 0, 1, 1), AdmitResult::Admitted);
    }
  }
}

TEST(Mempool, SeedIntoFullRingEvictsOldest) {
  MempoolOptions opt;
  opt.committed_ring = 3;
  Mempool mp(opt);
  std::vector<Bytes> live;
  for (int i = 0; i < 3; ++i) {
    live.push_back(tx("live-" + std::to_string(i)));
    ASSERT_EQ(mp.admit(live.back(), 1.0, 5, static_cast<std::uint64_t>(i)),
              AdmitResult::Admitted);
    ASSERT_TRUE(mp.match_commit(live.back(), 7, 1, 2.0).has_value());
  }
  const Bytes s1 = tx("seeded-1"), s2 = tx("seeded-2");
  mp.seed_committed(sha256(s1), 40, 2);
  mp.seed_committed(sha256(s2), 41, 3);
  EXPECT_EQ(mp.stats().seeded, 2u);
  // A hash already in the ring is not seeded twice.
  mp.seed_committed(sha256(s1), 99, 0);
  EXPECT_EQ(mp.stats().seeded, 2u);

  EXPECT_FALSE(mp.committed_record(sha256(live[0])).has_value());
  EXPECT_FALSE(mp.committed_record(sha256(live[1])).has_value());
  auto kept = mp.committed_record(sha256(live[2]));
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->client_seq, 2u);
  auto seeded = mp.committed_record(sha256(s1));
  ASSERT_TRUE(seeded.has_value());
  EXPECT_EQ(seeded->epoch, 40u);
  EXPECT_EQ(seeded->proposer, 2u);
  EXPECT_EQ(seeded->client_nonce, 0u);
  EXPECT_EQ(seeded->latency_us, 0u);
  EXPECT_EQ(mp.admit(s2, 0, 1, 1), AdmitResult::Committed);
  EXPECT_EQ(mp.admit(live[0], 0, 1, 1), AdmitResult::Admitted);
}

TEST(Mempool, SeedingAFullRingAllocatesNothing) {
  MempoolOptions opt;
  opt.committed_ring = 1024;
  Mempool mp(opt);
  std::vector<Hash> hashes;
  for (int i = 0; i < 4 * 1024; ++i) {
    hashes.push_back(sha256(tx("alloc-" + std::to_string(i))));
  }
  for (std::size_t i = 0; i < 1024; ++i) mp.seed_committed(hashes[i], i, 0);
  const std::size_t before = g_allocations.load();
  for (std::size_t i = 1024; i < hashes.size(); ++i) {
    mp.seed_committed(hashes[i], i, 0);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(mp.stats().seeded, hashes.size());
  EXPECT_TRUE(mp.committed_record(hashes.back()).has_value());
  EXPECT_FALSE(mp.committed_record(hashes.front()).has_value());
}

}  // namespace
}  // namespace dl::client
