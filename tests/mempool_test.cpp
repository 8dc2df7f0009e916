// Mempool admission semantics: FIFO order, count/byte caps, duplicate-hash
// rejection, drop accounting, and exactly-once commit matching with the
// recently-committed replay ring.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>
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
  ASSERT_TRUE(mp.match_commit(sha256(tx("inflight")), 2, 0, 1.0).has_value());
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
  auto rec = mp.match_commit(h, 5, 3, 2.25);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->client_nonce, 42u);
  EXPECT_EQ(rec->client_seq, 17u);
  EXPECT_EQ(rec->epoch, 5u);
  EXPECT_EQ(rec->proposer, 3u);
  EXPECT_EQ(rec->latency_us, 250'000u);
  EXPECT_EQ(mp.tracked_txs(), 0u);
  EXPECT_EQ(mp.stats().committed, 1u);

  // Second sighting of the same hash: not ours anymore.
  EXPECT_FALSE(mp.match_commit(h, 6, 0, 2.5).has_value());
  // Foreign hash: never ours.
  EXPECT_FALSE(mp.match_commit(sha256(tx("other")), 5, 0, 2.5).has_value());
}

TEST(Mempool, ResubmitAfterCommitIsReplayedNotReadmitted) {
  Mempool mp;
  const Bytes payload = tx("replayed");
  EXPECT_EQ(mp.admit(payload, 1.0, 9, 4), AdmitResult::Admitted);
  ASSERT_TRUE(mp.pop().has_value());
  ASSERT_TRUE(mp.match_commit(sha256(payload), 11, 2, 1.5).has_value());

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
  ASSERT_TRUE(mp.match_commit(sha256(payload), 3, 1, 1.0).has_value());
  EXPECT_EQ(mp.pending_txs(), 1u);
  EXPECT_EQ(to_string(ByteView(*mp.pop())), "first");
  EXPECT_FALSE(mp.pop().has_value());
}

TEST(Mempool, CommittedRingEvictsOldestRecords) {
  MempoolOptions opt;
  opt.committed_ring = 2;
  Mempool mp(opt);
  Bytes p1 = tx("r1"), p2 = tx("r2"), p3 = tx("r3");
  for (const Bytes* p : {&p1, &p2, &p3}) {
    ASSERT_EQ(mp.admit(*p, 0, 1, 1), AdmitResult::Admitted);
    ASSERT_TRUE(mp.pop().has_value());
    ASSERT_TRUE(mp.match_commit(sha256(*p), 1, 0, 1.0).has_value());
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
        auto rec = mp.match_commit(h, epoch, proposer, submit + 0.5);
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
    ASSERT_TRUE(mp.match_commit(sha256(live.back()), 7, 1, 2.0).has_value());
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
