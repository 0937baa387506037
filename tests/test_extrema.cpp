// Tests of the extrema-propagation Count/Sum extension
// (aggregate/extrema.hpp, after Mosk-Aoyama & Shah [16]).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "aggregate/extrema.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace drrg {
namespace {

TEST(ExtremaCount, WithinPredictedError) {
  // The estimator's relative standard error is 1/sqrt(k-2); check the
  // mean over seeds lands within a few predicted sigmas.
  const std::uint32_t n = 2048;
  ExtremaConfig cfg;
  cfg.k = 128;  // rse ~ 0.089
  double sum = 0.0;
  const int trials = 8;
  for (int s = 0; s < trials; ++s) {
    const auto r = drr_gossip_count_extrema(n, 100 + s, {}, cfg);
    EXPECT_TRUE(r.consensus);
    EXPECT_NEAR(r.estimate, n, 4.0 * r.predicted_rse * n) << s;
    sum += r.estimate;
  }
  EXPECT_NEAR(sum / trials, n, 2.0 * (1.0 / std::sqrt(126.0)) / std::sqrt(trials) * n * 3);
}

TEST(ExtremaCount, LossInvariant) {
  // Min-diffusion is idempotent: once the roots agree, the estimate cannot
  // depend on loss, delay or substrate (same seed => same draws => same
  // minima).  Each row runs the shared convergecast and root gossip: the
  // latency rows need the per-child dedup and the 1 + E[delay] budget,
  // the lattice rows the member relay and the diameter budget.
  sim::LatencyModel uniform_0_2;
  uniform_0_2.kind = sim::LatencyModel::Kind::kUniform;
  uniform_0_2.max_delay = 2;
  struct Row {
    const char* name;
    sim::Topology topology;
    double loss;
    sim::LatencyModel latency;
  };
  const Row rows[] = {
      {"loss 0.25", {}, 0.25, {}},
      {"latency uniform 0-2", {}, 0.0, uniform_0_2},
      {"grid", sim::Topology::of_grid(32, 32, false), 0.0, {}},
      {"torus", sim::Topology::of_grid(32, 32, true), 0.0, {}},
      {"grid + latency uniform 0-2 + loss 0.1", sim::Topology::of_grid(32, 32, false), 0.1,
       uniform_0_2},
  };
  const auto clean = drr_gossip_count_extrema(1024, 7);
  ASSERT_TRUE(clean.consensus);
  for (const Row& row : rows) {
    sim::FaultSchedule faults{row.loss, 0.0};
    faults.latency = row.latency;
    const auto r = drr_gossip_count_extrema(1024, 7, sim::Scenario{row.topology, faults});
    EXPECT_TRUE(r.consensus) << row.name;
    EXPECT_DOUBLE_EQ(r.estimate, clean.estimate) << row.name;
  }
}

TEST(ExtremaCount, CountsAliveNodesOnly) {
  ExtremaConfig cfg;
  cfg.k = 256;
  const auto r = drr_gossip_count_extrema(2048, 9, sim::FaultSchedule{0.0, 0.25}, cfg);
  EXPECT_NEAR(r.estimate, 1536.0, 4.0 * r.predicted_rse * 1536.0);
}

TEST(ExtremaSum, PositiveValues) {
  const std::uint32_t n = 1024;
  Rng rng{5};
  std::vector<double> values(n);
  double truth = 0.0;
  for (auto& v : values) {
    v = rng.next_uniform(0.5, 10.0);
    truth += v;
  }
  ExtremaConfig cfg;
  cfg.k = 200;
  const auto r = drr_gossip_sum_extrema(n, values, 11, {}, cfg);
  EXPECT_TRUE(r.consensus);
  EXPECT_NEAR(r.estimate, truth, 4.0 * r.predicted_rse * truth);
}

TEST(ExtremaSum, RobustAtModelLossCeiling) {
  const std::uint32_t n = 1024;
  std::vector<double> values(n, 2.5);  // truth = 2560
  ExtremaConfig cfg;
  cfg.k = 200;
  const auto r = drr_gossip_sum_extrema(n, values, 13, sim::FaultSchedule{0.125, 0.0}, cfg);
  EXPECT_TRUE(r.consensus);
  EXPECT_NEAR(r.estimate, 2560.0, 4.0 * r.predicted_rse * 2560.0);
}

TEST(ExtremaSum, RejectsNonPositive) {
  std::vector<double> values(64, 1.0);
  values[5] = 0.0;
  EXPECT_THROW((void)drr_gossip_sum_extrema(64, values, 1), std::invalid_argument);
  values[5] = -2.0;
  EXPECT_THROW((void)drr_gossip_sum_extrema(64, values, 1), std::invalid_argument);
}

TEST(Extrema, DefaultKIsLogarithmic) {
  const auto r = drr_gossip_count_extrema(4096, 3);
  EXPECT_EQ(r.k, 4u * 12);
  EXPECT_NEAR(r.predicted_rse, 1.0 / std::sqrt(46.0), 1e-12);
}

TEST(Extrema, Deterministic) {
  const auto a = drr_gossip_count_extrema(512, 21);
  const auto b = drr_gossip_count_extrema(512, 21);
  EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.counters.sent, b.counters.sent);
}

TEST(Extrema, MoreDrawsTightenTheEstimate) {
  // Mean absolute error over seeds should shrink roughly like 1/sqrt(k).
  const std::uint32_t n = 1024;
  auto mean_abs_err = [n](std::uint32_t k) {
    ExtremaConfig cfg;
    cfg.k = k;
    double err = 0.0;
    const int trials = 6;
    for (int s = 0; s < trials; ++s)
      err += std::fabs(drr_gossip_count_extrema(n, 300 + s, {}, cfg).estimate -
                       static_cast<double>(n));
    return err / trials;
  };
  EXPECT_LT(mean_abs_err(512), mean_abs_err(16));
}

TEST(Extrema, CostStaysNearDrrGossipShape) {
  // Message *count* keeps the pipeline shape (bits grow with k).
  const auto small = drr_gossip_count_extrema(512, 4);
  const auto big = drr_gossip_count_extrema(8192, 4);
  const double per_small = static_cast<double>(small.counters.sent) / 512.0;
  const double per_big = static_cast<double>(big.counters.sent) / 8192.0;
  EXPECT_LT(per_big, 2.0 * per_small);
}

}  // namespace
}  // namespace drrg
