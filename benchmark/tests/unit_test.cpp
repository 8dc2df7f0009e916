// Unit tests of the generator's arrival schedule and the percentile helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "dlbench.hpp"

namespace {

TEST(ArrivalSchedule, SeededCountWithinPoissonBounds) {
  for (std::uint64_t seed : {1, 2, 3, 8, 99}) {
    dlbench::ArrivalSchedule s(1000, seed, 0);
    const std::size_t n = s.release(10.0, 10.0, [](double) {});
    // 10000 expected, sigma 100: five sigma either way.
    EXPECT_GT(n, 9500u) << "seed " << seed;
    EXPECT_LT(n, 10500u) << "seed " << seed;
  }
}

TEST(ArrivalSchedule, SameSeedSameDueTimes) {
  dlbench::ArrivalSchedule a(500, 7, 2.0), b(500, 7, 2.0), c(500, 8, 2.0);
  std::vector<double> da, db, dc;
  a.release(3.0, 1e9, [&](double d) { da.push_back(d); });
  b.release(3.0, 1e9, [&](double d) { db.push_back(d); });
  c.release(3.0, 1e9, [&](double d) { dc.push_back(d); });
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
}

// A late tick releases the backlog with the due times of the schedule, so
// latency measured at commit counts from the due time, not the fire time.
TEST(ArrivalSchedule, LateTickKeepsDueTimes) {
  const double rate = 2000, start = 1.0;
  dlbench::ArrivalSchedule s(rate, 42, start);
  // The same gaps drawn independently: start + cumulative Exp(rate).
  dl::Rng rng(42);
  std::vector<double> expect;
  for (double t = start + rng.next_exponential(rate); t <= 1.25;
       t += rng.next_exponential(rate)) {
    expect.push_back(t);
  }
  s.release(1.0, 1e9, [](double) { FAIL() << "nothing is due at the start"; });
  std::vector<double> got;
  const double fire = 1.25;  // one tick, 250 ms late
  s.release(fire, 1e9, [&](double due) { got.push_back(due); });
  ASSERT_EQ(got, expect);
  const double commit = 1.30;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(commit - got[i], commit - expect[i]);
    EXPECT_GT(commit - got[i], commit - fire);
  }
  EXPECT_GT(s.next_due(), fire);
}

TEST(ArrivalSchedule, NothingAtOrPastUntil) {
  dlbench::ArrivalSchedule s(1000, 3, 0);
  std::vector<double> got;
  s.release(5.0, 2.0, [&](double d) { got.push_back(d); });
  ASSERT_FALSE(got.empty());
  EXPECT_LT(got.back(), 2.0);
  EXPECT_EQ(s.release(10.0, 2.0, [](double) {}), 0u);
}

TEST(Percentile, MatchesSortedReference) {
  dl::Rng rng(5);
  for (std::size_t n : {1, 2, 3, 10, 99, 100, 101, 1000, 4097}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.next_double() * 100;
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      // Nearest rank: the smallest value with at least q of the samples at
      // or below it.
      const double rank = std::ceil(q * static_cast<double>(n));
      const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
      std::vector<double> work = v;
      EXPECT_EQ(dlbench::percentile(work, q), sorted[idx]) << "n=" << n << " q=" << q;
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(dlbench::percentile(empty, 0.5), 0.0);
}

}  // namespace
