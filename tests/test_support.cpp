// Unit tests for the support layer: RNG, math helpers, tables.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace drrg {
namespace {

/// Sample mean and standard deviation of `count` draws.
template <class Draw>
std::pair<double, double> mean_and_stddev(int count, Draw draw) {
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < count; ++i) {
    const double x = draw();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / count;
  return {mean, std::sqrt((sum_sq - count * mean * mean) / (count - 1))};
}

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicFromSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{123}, b{124};
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(Rng, UnitIntervalRange) {
  Rng r{7};
  for (int i = 0; i < 100000; ++i) {
    const double u = r.next_unit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UnitIntervalMean) {
  Rng r{7};
  const auto [mean, stddev] = mean_and_stddev(200000, [&r] { return r.next_unit(); });
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(stddev, std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, NextBelowInRangeAndUnbiased) {
  Rng r{11};
  std::vector<std::uint64_t> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = r.next_below(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  // Chi-square with 9 dof: 99.99th percentile is ~33.7.
  double chi_square = 0.0;
  for (const std::uint64_t c : counts) chi_square += (c - 10000.0) * (c - 10000.0) / 10000.0;
  EXPECT_LT(chi_square, 40.0);
}

TEST(Rng, NextBelowOneIsZero) {
  Rng r{3};
  for (int i = 0; i < 100; ++i) ASSERT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextRangeInclusive) {
  Rng r{5};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng r{17};
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.next_bernoulli(0.125);
  EXPECT_NEAR(hits / 100000.0, 0.125, 0.005);
}

TEST(Rng, NormalMoments) {
  Rng r{29};
  const auto [mean, stddev] = mean_and_stddev(200000, [&r] { return r.next_normal(); });
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(stddev, 1.0, 0.02);
}

TEST(RngFactory, NodeStreamsIndependent) {
  RngFactory f{99};
  Rng a = f.node_stream(1), b = f.node_stream(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(RngFactory, PurposeTagSeparatesStreams) {
  RngFactory f{99};
  Rng a = f.node_stream(1, 0), b = f.node_stream(1, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++equal;
  EXPECT_LE(equal, 1);
}

TEST(RngFactory, Reproducible) {
  RngFactory f1{42}, f2{42};
  Rng a = f1.node_stream(5, 7), b = f2.node_stream(5, 7);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a(), b());
}

TEST(DeriveSeed, SensitiveToAllArguments) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 8; ++a)
    for (std::uint64_t b = 0; b < 8; ++b)
      for (std::uint64_t c = 0; c < 8; ++c) seen.insert(derive_seed(a, b, c));
  EXPECT_EQ(seen.size(), 8u * 8 * 8);
}

// ---------------------------------------------------------------------------
// mathutil

TEST(MathUtil, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_EQ(floor_log2(1024), 10u);
}

TEST(MathUtil, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(MathUtil, ClampedLogsAtLeastOne) {
  EXPECT_DOUBLE_EQ(log2_clamped(2.0), 1.0);
  EXPECT_DOUBLE_EQ(log2_clamped(1.0), 1.0);
  EXPECT_NEAR(log2_clamped(1024.0), 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(loglog2_clamped(4.0), 1.0);
  EXPECT_NEAR(loglog2_clamped(65536.0), 4.0, 1e-12);
}

TEST(MathUtil, DrrProbeBudget) {
  EXPECT_EQ(drr_probe_budget(2), 1u);     // log2(2)-1 = 0 -> clamped to 1
  EXPECT_EQ(drr_probe_budget(1024), 9u);  // log2-1
  EXPECT_EQ(drr_probe_budget(1 << 16), 15u);
}

TEST(MathUtil, AddressBits) {
  EXPECT_EQ(address_bits(2), 1u);
  EXPECT_EQ(address_bits(1024), 10u);
  EXPECT_EQ(address_bits(1025), 11u);
}

// ---------------------------------------------------------------------------
// table

TEST(Table, AlignedRendering) {
  Table t{{"n", "messages"}};
  t.row().add_int(1024).add_real(3.14159, 2);
  t.row().add_int(65536).add_int(42);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("messages"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_NE(s.find("65536"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, AddRowInitializer) {
  Table t{{"a", "b"}};
  t.add_row({"x", "y"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.to_string().find('x'), std::string::npos);
}

}  // namespace
}  // namespace drrg
