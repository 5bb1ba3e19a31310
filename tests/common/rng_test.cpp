#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace whisper {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = r.next_below(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextRangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = r.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BoolProbability) {
  Rng r(13);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (r.next_bool(0.3)) ++heads;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(19);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng parent(23);
  Rng c1 = parent.fork();
  Rng c2 = parent.fork();
  // Child streams differ from each other.
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (c1.next_u64() == c2.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkDeterministic) {
  Rng p1(23), p2(23);
  Rng c1 = p1.fork();
  Rng c2 = p2.fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng r(31);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  auto orig = v;
  r.shuffle(v);
  EXPECT_NE(v, orig);
}

TEST(Rng, FillBytesDeterministic) {
  Rng a(37), b(37);
  std::uint8_t ba[33], bb[33];
  a.fill_bytes(ba, sizeof(ba));
  b.fill_bytes(bb, sizeof(bb));
  EXPECT_EQ(0, memcmp(ba, bb, sizeof(ba)));
}

}  // namespace
}  // namespace whisper
