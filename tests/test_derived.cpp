// Tests of the derived aggregates (Any/All, leader election, histogram)
// and the new baselines (pairwise averaging, push-pull max).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "aggregate/derived.hpp"
#include "baselines/pairwise_averaging.hpp"
#include "baselines/uniform_gossip.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "topology/builders.hpp"

namespace drrg {
namespace {

// ---------------------------------------------------------------------------
// Any / All

TEST(AnyAll, AnyDetectsSingleFlag) {
  const std::uint32_t n = 512;
  std::vector<bool> flags(n, false);
  flags[137] = true;
  const auto any = drr_gossip_any(n, flags, 3);
  EXPECT_TRUE(any.value);
  EXPECT_TRUE(any.detail.consensus);
  const auto all = drr_gossip_all(n, flags, 4);
  EXPECT_FALSE(all.value);
}

TEST(AnyAll, AllRequiresEveryFlag) {
  const std::uint32_t n = 256;
  std::vector<bool> flags(n, true);
  EXPECT_TRUE(drr_gossip_all(n, flags, 5).value);
  flags[200] = false;
  EXPECT_FALSE(drr_gossip_all(n, flags, 6).value);
  EXPECT_TRUE(drr_gossip_any(n, flags, 7).value);
}

TEST(AnyAll, AllFalse) {
  std::vector<bool> flags(128, false);
  EXPECT_FALSE(drr_gossip_any(128, flags, 8).value);
  EXPECT_FALSE(drr_gossip_all(128, flags, 9).value);
}

TEST(AnyAll, RobustToModelLoss) {
  std::vector<bool> flags(1024, false);
  flags[7] = true;
  const auto any = drr_gossip_any(1024, flags, 10, sim::FaultSchedule{0.125, 0.0});
  EXPECT_TRUE(any.value);
  EXPECT_TRUE(any.detail.consensus);
}

// ---------------------------------------------------------------------------
// Leader election

TEST(LeaderElection, ElectsHighestAliveId) {
  const auto r = drr_gossip_elect_leader(512, 11);
  EXPECT_EQ(r.leader, 511u);
  EXPECT_TRUE(r.detail.consensus);
}

TEST(LeaderElection, SkipsCrashedNodes) {
  const auto r = drr_gossip_elect_leader(512, 12, sim::FaultSchedule{0.0, 0.3});
  ASSERT_LT(r.leader, 512u);
  EXPECT_TRUE(r.detail.participating[r.leader]);
  // No participating node has a higher id.
  for (NodeId v = r.leader + 1; v < 512; ++v) EXPECT_FALSE(r.detail.participating[v]);
}

TEST(LeaderElection, AllNodesLearnTheLeader) {
  const auto r = drr_gossip_elect_leader(256, 13);
  for (NodeId v = 0; v < 256; ++v) {
    if (r.detail.participating[v]) {
      ASSERT_DOUBLE_EQ(r.detail.per_node[v], static_cast<double>(r.leader));
    }
  }
}

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, MatchesDirectCounts) {
  const std::uint32_t n = 1024;
  Rng rng{17};
  std::vector<double> values(n);
  for (auto& v : values) v = rng.next_uniform(0.0, 100.0);
  const std::vector<double> edges{0.0, 25.0, 50.0, 75.0, 100.0001};
  const auto h = drr_gossip_histogram(n, values, edges, 21);
  ASSERT_EQ(h.counts.size(), 4u);
  for (std::size_t b = 0; b < 4; ++b) {
    double truth = 0;
    for (double v : values)
      if (v >= edges[b] && v < edges[b + 1]) ++truth;
    EXPECT_NEAR(h.counts[b], truth, 0.06 * n) << b;
  }
  EXPECT_EQ(h.pipeline_runs, 5u);
  double total = std::accumulate(h.counts.begin(), h.counts.end(), 0.0);
  EXPECT_NEAR(total, n, 0.1 * n);
}

TEST(Histogram, ThreadedQueriesAreBitIdentical) {
  // The per-edge rank queries fan onto the deterministic executor; any
  // thread count (0 = all cores) must reproduce the inline result.
  const std::uint32_t n = 256;
  Rng rng{29};
  std::vector<double> values(n);
  for (auto& v : values) v = rng.next_uniform(0.0, 100.0);
  const std::vector<double> edges{0.0, 30.0, 60.0, 100.0001};
  const auto inline_run = drr_gossip_histogram(n, values, edges, 7, {}, {}, 1);
  for (const unsigned threads : {3u, 0u}) {
    const auto h = drr_gossip_histogram(n, values, edges, 7, {}, {}, threads);
    ASSERT_EQ(h.counts.size(), inline_run.counts.size());
    for (std::size_t b = 0; b < h.counts.size(); ++b)
      EXPECT_EQ(h.counts[b], inline_run.counts[b]) << "threads " << threads;
    EXPECT_EQ(h.total.sent, inline_run.total.sent);
    EXPECT_EQ(h.total.bits, inline_run.total.bits);
  }
}

TEST(Histogram, RejectsBadEdges) {
  std::vector<double> values(16, 1.0);
  EXPECT_THROW((void)drr_gossip_histogram(16, values, std::vector<double>{1.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(
      (void)drr_gossip_histogram(16, values, std::vector<double>{2.0, 1.0}, 1),
      std::invalid_argument);
  EXPECT_THROW(
      (void)drr_gossip_histogram(16, values, std::vector<double>{1.0, 1.0}, 1),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pairwise averaging (Boyd et al.)

TEST(PairwiseAveraging, ConvergesOnCompleteGraph) {
  const std::uint32_t n = 1024;
  Rng rng{23};
  std::vector<double> values(n);
  double sum = 0.0;
  for (auto& v : values) {
    v = rng.next_uniform(-10.0, 30.0);
    sum += v;
  }
  PairwiseConfig cfg;
  cfg.round_multiplier = 10.0;
  const auto r = pairwise_average(n, values, 24, {}, cfg);
  const double ave = sum / n;
  for (double v : r.value) ASSERT_NEAR(v, ave, 1e-3 * std::max(1.0, std::fabs(ave)));
  EXPECT_LT(r.max_relative_error, 1e-4);
}

TEST(PairwiseAveraging, SumInvariantExactAtZeroLoss) {
  const std::uint32_t n = 512;
  Rng rng{25};
  std::vector<double> values(n);
  double sum = 0.0;
  for (auto& v : values) {
    v = rng.next_uniform(0.0, 9.0);
    sum += v;
  }
  PairwiseConfig cfg;
  cfg.round_multiplier = 1.0;  // stop early: invariant must hold anyway
  const auto r = pairwise_average(n, values, 26, {}, cfg);
  const double after = std::accumulate(r.value.begin(), r.value.end(), 0.0);
  EXPECT_NEAR(after, sum, 1e-7 * std::fabs(sum));
}

TEST(PairwiseAveraging, SumInvariantSurvivesLoss) {
  // A lost offer averages nothing, so the global sum is still conserved.
  const std::uint32_t n = 512;
  std::vector<double> values(n, 0.0);
  values[0] = 512.0;  // all mass at one node
  PairwiseConfig cfg;
  cfg.round_multiplier = 4.0;
  const auto r = pairwise_average(n, values, 27, sim::FaultSchedule{0.25, 0.0}, cfg);
  EXPECT_NEAR(std::accumulate(r.value.begin(), r.value.end(), 0.0), 512.0, 1e-6);
}

TEST(PairwiseAveraging, ErrorDecaysGeometrically) {
  const std::uint32_t n = 2048;
  Rng rng{29};
  std::vector<double> values(n);
  for (auto& v : values) v = rng.next_uniform(-5.0, 15.0);
  const auto r = pairwise_average(n, values, 30);
  ASSERT_GE(r.error_per_round.size(), 70u);
  // Matching pairs only ~1/4 of the nodes per round, so the contraction
  // per round is mild (~0.93) but relentlessly geometric.
  EXPECT_LT(r.error_per_round[69], r.error_per_round[1] / 30.0);
  EXPECT_LT(r.error_per_round.back(), r.error_per_round[1] / 30.0);
}

TEST(PairwiseAveraging, WorksOnSparseGraphs) {
  const Graph g = make_grid(24, 24, /*torus=*/true);
  std::vector<double> values(g.size());
  Rng rng{31};
  double sum = 0.0;
  for (auto& v : values) {
    v = rng.next_uniform(0.0, 10.0);
    sum += v;
  }
  PairwiseConfig cfg;
  cfg.round_multiplier = 40.0;  // grid mixing is slower (spectral gap)
  const auto r = pairwise_average_on_graph(g, values, 32, {}, cfg);
  // Sparse mixing is slow; just require substantial contraction.
  EXPECT_LT(r.max_relative_error, 0.05);
  EXPECT_NEAR(std::accumulate(r.value.begin(), r.value.end(), 0.0), sum, 1e-6 * sum);
}

// ---------------------------------------------------------------------------
// Push-pull max

TEST(PushPullMax, ConsensusFasterThanPushOnly) {
  const std::uint32_t n = 4096;
  Rng rng{33};
  std::vector<double> values(n);
  for (auto& v : values) v = rng.next_uniform(0.0, 50.0);
  const auto push = uniform_push_max(n, values, 34);
  const auto pp = uniform_push_pull_max(n, values, 34);
  ASSERT_TRUE(push.consensus);
  ASSERT_TRUE(pp.consensus);
  EXPECT_LE(pp.rounds_to_consensus, push.rounds_to_consensus);
}

TEST(PushPullMax, StillNLogNMessages) {
  const auto r1 = uniform_push_pull_max(512, std::vector<double>(512, 1.0), 35);
  const auto r2 = uniform_push_pull_max(8192, std::vector<double>(8192, 1.0), 35);
  const double k1 =
      static_cast<double>(r1.messages_to_consensus) / (512.0 * log2_clamped(512));
  const double k2 =
      static_cast<double>(r2.messages_to_consensus) / (8192.0 * log2_clamped(8192));
  EXPECT_LT(k2, 2.5 * k1);
  EXPECT_GT(k2, k1 / 2.5);
}

// ---------------------------------------------------------------------------
// New topology builders

TEST(SmallWorld, DegreesAndConnectivity) {
  const Graph g = make_small_world(1000, 3, 0.1, 7);
  EXPECT_TRUE(g.connected());
  // Rewiring conserves edges up to abandoned rewires.
  EXPECT_NEAR(static_cast<double>(g.edge_count()), 3000.0, 50.0);
  EXPECT_GE(g.min_degree(), 1u);
}

TEST(SmallWorld, BetaZeroIsLattice) {
  const Graph g = make_small_world(100, 2, 0.0, 1);
  EXPECT_EQ(g.edge_count(), 200u);
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(SmallWorld, Deterministic) {
  const Graph a = make_small_world(300, 3, 0.3, 9);
  const Graph b = make_small_world(300, 3, 0.3, 9);
  for (NodeId v = 0; v < 300; ++v) {
    auto na = a.neighbors(v), nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
  }
}

TEST(PreferentialAttachment, HeavyTail) {
  const Graph g = make_preferential_attachment(2000, 3, 11);
  EXPECT_TRUE(g.connected());
  EXPECT_GE(g.min_degree(), 1u);
  // The hub degree dwarfs the median degree.
  std::vector<std::uint32_t> degs(g.size());
  for (NodeId v = 0; v < g.size(); ++v) degs[v] = g.degree(v);
  std::sort(degs.begin(), degs.end());
  EXPECT_GT(degs.back(), 6 * degs[g.size() / 2]);
}

TEST(PreferentialAttachment, EdgeBudget) {
  const std::uint32_t n = 500, m = 2;
  const Graph g = make_preferential_attachment(n, m, 13);
  // Seed clique edges + ~m per subsequent node (duplicates skipped).
  EXPECT_LE(g.edge_count(), static_cast<std::uint64_t>(m + 1) * m / 2 + (n - m - 1) * m);
  EXPECT_GE(g.edge_count(), (n - m - 1) * m / 2);
}

TEST(NewBuilders, InvalidArguments) {
  EXPECT_THROW(make_small_world(10, 5, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(make_small_world(10, 0, 0.1, 1), std::invalid_argument);
  EXPECT_THROW(make_small_world(10, 2, 1.5, 1), std::invalid_argument);
  EXPECT_THROW(make_preferential_attachment(10, 0, 1), std::invalid_argument);
  EXPECT_THROW(make_preferential_attachment(10, 10, 1), std::invalid_argument);
}

}  // namespace
}  // namespace drrg
