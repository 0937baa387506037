// Cross-cutting property matrix: every aggregate of the public API is run
// over a grid of fault settings and checked against the invariants that
// must hold regardless of configuration --
//   (1) the pipeline terminates and reports consistent metadata,
//   (2) the result lies within the participating values' hull (for
//       order/mean aggregates),
//   (3) all participating nodes receive the same value (broadcast
//       coherence, when consensus is reported),
//   (4) total message accounting is consistent (sent = delivered + lost),
//   (5) reruns with the same seed reproduce results bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "aggregate/drr_gossip.hpp"
#include "support/rng.hpp"

namespace drrg {
namespace {

using Params = std::tuple<double /*loss*/, double /*crash*/, std::uint64_t /*seed*/>;

class FaultMatrix : public ::testing::TestWithParam<Params> {
 protected:
  static constexpr std::uint32_t kN = 768;

  std::vector<double> values() const {
    Rng rng{std::get<2>(GetParam()) * 17 + 5};
    std::vector<double> v(kN);
    for (auto& x : v) x = rng.next_uniform(-100.0, 300.0);
    return v;
  }

  sim::FaultSchedule faults() const {
    return sim::FaultSchedule{std::get<0>(GetParam()), std::get<1>(GetParam())};
  }

  std::uint64_t seed() const { return std::get<2>(GetParam()); }

  struct Hull {
    double lo = 1e300, hi = -1e300;
    std::uint32_t count = 0;
  };

  static Hull hull_of(const std::vector<double>& vals, const std::vector<bool>& part) {
    Hull h;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (!part[i]) continue;
      h.lo = std::min(h.lo, vals[i]);
      h.hi = std::max(h.hi, vals[i]);
      ++h.count;
    }
    return h;
  }

  static void check_counters(const PhaseMetrics& m) {
    for (const sim::Counters* c : {&m.drr, &m.convergecast, &m.root_broadcast,
                                   &m.gossip, &m.spread, &m.value_broadcast}) {
      EXPECT_EQ(c->sent, c->delivered + c->lost);
    }
  }
};

TEST_P(FaultMatrix, MaxInvariants) {
  const auto vals = values();
  const auto r = drr_gossip_max(kN, vals, seed(), faults());
  const Hull h = hull_of(vals, r.participating);
  EXPECT_GE(r.value, h.lo);
  EXPECT_LE(r.value, h.hi);
  EXPECT_EQ(r.value, h.hi);  // Max is exact under the §2 model
  check_counters(r.metrics);
  if (r.consensus) {
    for (std::uint32_t v = 0; v < kN; ++v) {
      if (r.participating[v]) {
        ASSERT_EQ(r.per_node[v], r.value);
      }
    }
  }
}

TEST_P(FaultMatrix, MinInvariants) {
  const auto vals = values();
  const auto r = drr_gossip_min(kN, vals, seed(), faults());
  const Hull h = hull_of(vals, r.participating);
  EXPECT_EQ(r.value, h.lo);
  check_counters(r.metrics);
}

TEST_P(FaultMatrix, AveInvariants) {
  const auto vals = values();
  DrrGossipConfig cfg;
  cfg.push_sum.rounds_multiplier = 8.0;
  const auto r = drr_gossip_ave(kN, vals, seed(), faults(), cfg);
  const Hull h = hull_of(vals, r.participating);
  // The average estimate must stay within the hull: push-sum is a convex
  // recombination of the inputs, loss or not.
  EXPECT_GE(r.value, h.lo - 1e-9);
  EXPECT_LE(r.value, h.hi + 1e-9);
  check_counters(r.metrics);
}

TEST_P(FaultMatrix, CountInvariants) {
  const auto r = drr_gossip_count(kN, seed(), faults());
  const Hull h = hull_of(std::vector<double>(kN, 1.0), r.participating);
  EXPECT_GT(r.value, 0.0);
  // Exact only in the fault-free case: crashed nodes act as implicit
  // message loss for push-sum (a push landing on a dead node loses its
  // mass), so any fault setting can drift the single-source-denominator
  // Count (see EXPERIMENTS.md).  Bound the drift loosely.
  if (std::get<0>(GetParam()) == 0.0 && std::get<1>(GetParam()) == 0.0) {
    EXPECT_NEAR(r.value, h.count, 0.05 * h.count + 1);
  } else {
    EXPECT_GT(r.value, 0.1 * h.count);
    EXPECT_LT(r.value, 10.0 * h.count);
  }
  check_counters(r.metrics);
}

TEST_P(FaultMatrix, Determinism) {
  const auto vals = values();
  const auto a = drr_gossip_ave(kN, vals, seed(), faults());
  const auto b = drr_gossip_ave(kN, vals, seed(), faults());
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.metrics.total().sent, b.metrics.total().sent);
  EXPECT_EQ(a.metrics.total().lost, b.metrics.total().lost);
  EXPECT_EQ(a.rounds_total, b.rounds_total);
  EXPECT_EQ(a.forest.num_trees, b.forest.num_trees);
}

TEST_P(FaultMatrix, ParticipationMatchesCrashFraction) {
  const auto vals = values();
  const auto r = drr_gossip_max(kN, vals, seed(), faults());
  const auto expected_alive =
      kN - static_cast<std::uint32_t>(std::get<1>(GetParam()) * kN);
  std::uint32_t alive = 0;
  for (std::uint32_t v = 0; v < kN; ++v) alive += r.participating[v];
  EXPECT_EQ(alive, expected_alive);
}

TEST_P(FaultMatrix, LossOnlyWhenConfigured) {
  const auto vals = values();
  const auto r = drr_gossip_max(kN, vals, seed(), faults());
  if (std::get<0>(GetParam()) == 0.0 && std::get<1>(GetParam()) == 0.0) {
    EXPECT_EQ(r.metrics.total().lost, 0u);
  }
  if (std::get<0>(GetParam()) >= 0.1) {
    EXPECT_GT(r.metrics.total().lost, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FaultMatrix,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.125),
                       ::testing::Values(0.0, 0.1, 0.3),
                       ::testing::Values(1ull, 2ull)));

}  // namespace
}  // namespace drrg
