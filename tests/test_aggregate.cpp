// End-to-end tests of the DRR-gossip pipelines (Algorithms 7 and 8) --
// the library's public API.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "aggregate/drr_gossip.hpp"
#include "aggregate/quantile.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace drrg {
namespace {

std::vector<double> make_values(std::uint32_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_uniform(-25.0, 75.0);
  return v;
}

struct TrueAggregates {
  double max, min, sum, ave;
  std::uint32_t count;
};

TrueAggregates over_participants(const std::vector<double>& values,
                                 const std::vector<bool>& participating) {
  TrueAggregates t{-1e300, 1e300, 0.0, 0.0, 0};
  for (std::size_t v = 0; v < values.size(); ++v) {
    if (!participating[v]) continue;
    t.max = std::max(t.max, values[v]);
    t.min = std::min(t.min, values[v]);
    t.sum += values[v];
    ++t.count;
  }
  t.ave = t.sum / t.count;
  return t;
}

// ---------------------------------------------------------------------------
// Exactness at delta = 0 over an (n, seed) grid.

class Pipelines
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(Pipelines, MaxExactWithConsensus) {
  const auto [n, seed] = GetParam();
  const auto values = make_values(n, seed);
  const auto r = drr_gossip_max(n, values, seed);
  const auto t = over_participants(values, r.participating);
  EXPECT_DOUBLE_EQ(r.value, t.max);
  EXPECT_TRUE(r.consensus);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (r.participating[v]) {
      ASSERT_DOUBLE_EQ(r.per_node[v], t.max);
    }
  }
}

TEST_P(Pipelines, MinExactWithConsensus) {
  const auto [n, seed] = GetParam();
  const auto values = make_values(n, seed + 1);
  const auto r = drr_gossip_min(n, values, seed);
  const auto t = over_participants(values, r.participating);
  EXPECT_DOUBLE_EQ(r.value, t.min);
  EXPECT_TRUE(r.consensus);
}

TEST_P(Pipelines, AveAccurate) {
  const auto [n, seed] = GetParam();
  const auto values = make_values(n, seed + 2);
  const auto r = drr_gossip_ave(n, values, seed);
  const auto t = over_participants(values, r.participating);
  EXPECT_TRUE(r.consensus);
  EXPECT_NEAR(r.value, t.ave, 1e-3 * std::max(1.0, std::fabs(t.ave)));
}

TEST_P(Pipelines, SumAccurate) {
  const auto [n, seed] = GetParam();
  const auto values = make_values(n, seed + 3);
  const auto r = drr_gossip_sum(n, values, seed);
  const auto t = over_participants(values, r.participating);
  EXPECT_TRUE(r.consensus);
  EXPECT_NEAR(r.value, t.sum, 1e-3 * std::max(1.0, std::fabs(t.sum)));
}

TEST_P(Pipelines, CountAccurate) {
  const auto [n, seed] = GetParam();
  const auto r = drr_gossip_count(n, seed);
  EXPECT_TRUE(r.consensus);
  EXPECT_NEAR(r.value, static_cast<double>(n), 0.05 * n + 1.0);
}

TEST_P(Pipelines, RankAccurate) {
  const auto [n, seed] = GetParam();
  const auto values = make_values(n, seed + 4);
  const double x = 25.0;  // mid-range threshold
  const auto r = drr_gossip_rank(n, values, x, seed);
  double true_rank = 0;
  for (std::uint32_t v = 0; v < n; ++v)
    if (r.participating[v] && values[v] < x) ++true_rank;
  EXPECT_TRUE(r.consensus);
  EXPECT_NEAR(r.value, true_rank, 0.02 * n + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Grid, Pipelines,
                         ::testing::Combine(::testing::Values(64u, 256u, 1024u),
                                            ::testing::Values(1ull, 2ull, 3ull)));

// ---------------------------------------------------------------------------
// Fault tolerance (§2 model: delta < 1/8 loss, initial crashes).

class FaultyPipelines : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultyPipelines, MaxExactUnderModelLoss) {
  const std::uint64_t seed = GetParam();
  const std::uint32_t n = 1024;
  const auto values = make_values(n, seed);
  const auto r = drr_gossip_max(n, values, seed, sim::FaultSchedule{0.125, 0.0});
  const auto t = over_participants(values, r.participating);
  EXPECT_DOUBLE_EQ(r.value, t.max);
  EXPECT_TRUE(r.consensus);
}

TEST_P(FaultyPipelines, AveAccurateUnderModelLoss) {
  const std::uint64_t seed = GetParam();
  const std::uint32_t n = 1024;
  const auto values = make_values(n, seed + 9);
  DrrGossipConfig cfg;
  cfg.push_sum.rounds_multiplier = 8.0;  // loss slows convergence
  const auto r = drr_gossip_ave(n, values, seed, sim::FaultSchedule{0.125, 0.0}, cfg);
  const auto t = over_participants(values, r.participating);
  EXPECT_NEAR(r.value, t.ave, 0.15 * std::max(1.0, std::fabs(t.ave)));  // lossy push-sum drift
}

TEST_P(FaultyPipelines, MaxWithInitialCrashes) {
  const std::uint64_t seed = GetParam();
  const std::uint32_t n = 1024;
  const auto values = make_values(n, seed + 5);
  const auto r = drr_gossip_max(n, values, seed, sim::FaultSchedule{0.0, 0.2});
  const auto t = over_participants(values, r.participating);
  EXPECT_EQ(t.count, 820u);  // 1024 - floor(0.2 * 1024)
  EXPECT_DOUBLE_EQ(r.value, t.max);
  EXPECT_TRUE(r.consensus);
}

TEST_P(FaultyPipelines, AveWithCrashesAndLoss) {
  const std::uint64_t seed = GetParam();
  const std::uint32_t n = 2048;
  const auto values = make_values(n, seed + 6);
  DrrGossipConfig cfg;
  cfg.push_sum.rounds_multiplier = 8.0;
  const auto r = drr_gossip_ave(n, values, seed, sim::FaultSchedule{0.1, 0.1}, cfg);
  const auto t = over_participants(values, r.participating);
  EXPECT_NEAR(r.value, t.ave, 0.15 * std::max(1.0, std::fabs(t.ave)));  // lossy push-sum drift
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultyPipelines, ::testing::Values(21ull, 22ull, 23ull));

// ---------------------------------------------------------------------------
// Complexity observables.

TEST(PipelineComplexity, TimeLogarithmic) {
  // rounds_total across 64x growth in n should grow like log n, not n.
  const auto values_s = make_values(256, 1);
  const auto values_b = make_values(16384, 1);
  const auto rs = drr_gossip_max(256, values_s, 5);
  const auto rb = drr_gossip_max(16384, values_b, 5);
  EXPECT_LT(rb.rounds_total, 4u * rs.rounds_total);
}

TEST(PipelineComplexity, MessagesNearNLogLog) {
  // messages / (n log log n) bounded across 64x growth.
  const auto values_s = make_values(256, 2);
  const auto values_b = make_values(16384, 2);
  const auto rs = drr_gossip_max(256, values_s, 6);
  const auto rb = drr_gossip_max(16384, values_b, 6);
  const double cs = static_cast<double>(rs.metrics.total().sent) /
                    (256.0 * loglog2_clamped(256));
  const double cb = static_cast<double>(rb.metrics.total().sent) /
                    (16384.0 * loglog2_clamped(16384));
  EXPECT_LT(cb, 2.5 * cs);
}

TEST(PipelineComplexity, PhaseMetricsAddUp) {
  const auto values = make_values(512, 3);
  const auto r = drr_gossip_ave(512, values, 7);
  const auto total = r.metrics.total();
  const auto sum = r.metrics.drr.sent + r.metrics.convergecast.sent +
                   r.metrics.root_broadcast.sent + r.metrics.gossip.sent +
                   r.metrics.spread.sent + r.metrics.value_broadcast.sent;
  EXPECT_EQ(total.sent, sum);
  EXPECT_GT(r.metrics.drr.sent, 0u);
  EXPECT_GT(r.metrics.convergecast.sent, 0u);
  EXPECT_GT(r.metrics.gossip.sent, 0u);
  EXPECT_GT(r.metrics.value_broadcast.sent, 0u);
}

TEST(PipelineComplexity, ForestSummaryPopulated) {
  const auto values = make_values(1024, 4);
  const auto r = drr_gossip_max(1024, values, 8);
  EXPECT_GT(r.forest.num_trees, 0u);
  EXPECT_GT(r.forest.max_tree_size, 0u);
  EXPECT_NE(r.forest.largest_tree_root, kNoParent);
  EXPECT_LE(r.forest.max_tree_height, r.forest.max_tree_size);
}

TEST(Pipeline, Deterministic) {
  const auto values = make_values(512, 5);
  const auto a = drr_gossip_ave(512, values, 99);
  const auto b = drr_gossip_ave(512, values, 99);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_EQ(a.metrics.total().sent, b.metrics.total().sent);
  EXPECT_EQ(a.rounds_total, b.rounds_total);
}

TEST(Pipeline, SkippingFinalBroadcastLeavesPerNodeEmpty) {
  DrrGossipConfig cfg;
  cfg.broadcast_result = false;
  const auto values = make_values(256, 6);
  const auto r = drr_gossip_max(256, values, 9, {}, cfg);
  EXPECT_TRUE(r.per_node.empty());
  EXPECT_EQ(r.metrics.value_broadcast.sent, 0u);
  EXPECT_DOUBLE_EQ(r.value, *std::max_element(values.begin(), values.end()));
}

TEST(Pipeline, NegativeValuesOnly) {
  std::vector<double> values(300);
  Rng rng{17};
  for (auto& v : values) v = rng.next_uniform(-1000.0, -500.0);
  const auto mx = drr_gossip_max(300, values, 10);
  EXPECT_DOUBLE_EQ(mx.value, *std::max_element(values.begin(), values.end()));
  const auto av = drr_gossip_ave(300, values, 11);
  const double ave = std::accumulate(values.begin(), values.end(), 0.0) / 300.0;
  EXPECT_NEAR(av.value, ave, 1e-3 * std::fabs(ave));
}

TEST(Pipeline, ZeroAverage) {
  // xave = 0: gossip-ave still works (§3.3.2 discusses this case); the
  // error criterion becomes absolute.
  std::vector<double> values(400);
  for (std::size_t i = 0; i < 400; ++i) values[i] = (i % 2 == 0) ? 1.0 : -1.0;
  const auto r = drr_gossip_ave(400, values, 12);
  EXPECT_NEAR(r.value, 0.0, 1e-3);
}

TEST(Pipeline, IdenticalValues) {
  std::vector<double> values(500, 3.25);
  const auto mx = drr_gossip_max(500, values, 13);
  EXPECT_DOUBLE_EQ(mx.value, 3.25);
  const auto av = drr_gossip_ave(500, values, 14);
  EXPECT_NEAR(av.value, 3.25, 1e-6);
}

TEST(Pipeline, TinyNetwork) {
  std::vector<double> values{5.0, 1.0, 9.0, 2.0};
  const auto r = drr_gossip_max(4, values, 15);
  EXPECT_DOUBLE_EQ(r.value, 9.0);
  EXPECT_TRUE(r.consensus);
}

TEST(Pipeline, ThrowsOnShortValues) {
  std::vector<double> values(10, 0.0);
  EXPECT_THROW((void)drr_gossip_max(100, values, 1), std::invalid_argument);
  EXPECT_THROW((void)drr_gossip_ave(100, values, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Quantiles.

TEST(Quantile, MedianOfUniformValues) {
  const std::uint32_t n = 512;
  const auto values = make_values(n, 77);
  QuantileConfig cfg;
  cfg.iterations = 24;
  const auto r = drr_gossip_median(n, values, 31, {}, cfg);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double true_median = sorted[n / 2];
  // The quantile is estimated through noisy rank counts: allow a small
  // rank-window around the true median.
  const double lo = sorted[n / 2 - n / 32], hi = sorted[n / 2 + n / 32];
  EXPECT_GE(r.value, lo) << "true median " << true_median;
  EXPECT_LE(r.value, hi);
  EXPECT_GT(r.pipeline_runs, 4u);
  EXPECT_GT(r.total.sent, 0u);
}

TEST(Quantile, ExtremesBracketed) {
  const std::uint32_t n = 256;
  const auto values = make_values(n, 78);
  QuantileConfig cfg;
  cfg.iterations = 16;
  const auto lo = drr_gossip_quantile(n, values, 0.05, 32, {}, cfg);
  const auto hi = drr_gossip_quantile(n, values, 0.95, 33, {}, cfg);
  EXPECT_LT(lo.value, hi.value);
}

TEST(Quantile, RejectsBadQ) {
  std::vector<double> values(16, 1.0);
  EXPECT_THROW((void)drr_gossip_quantile(16, values, 1.5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace drrg
