// Tests of Phase III: Gossip-max (Alg 4), Data-spread (Alg 5) and
// Gossip-ave / push-sum (Alg 6), plus the ordered-key encodings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "drr/drr.hpp"
#include "rootgossip/gossip_ave.hpp"
#include "rootgossip/gossip_max.hpp"
#include "rootgossip/ordered_key.hpp"
#include "support/rng.hpp"

namespace drrg {
namespace {

// ---------------------------------------------------------------------------
// ordered_key

TEST(OrderedKey, RoundTrip) {
  for (double d : {0.0, -0.0, 1.0, -1.0, 3.141592653589793, -2.718281828459045,
                   1e-300, -1e-300, 1e300, -1e300,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(decode_ordered(encode_ordered(d)), d);
  }
}

TEST(OrderedKey, StrictlyMonotone) {
  Rng rng{5};
  for (int i = 0; i < 100000; ++i) {
    const double a = rng.next_normal() * std::pow(10.0, rng.next_range(-30, 30));
    const double b = rng.next_normal() * std::pow(10.0, rng.next_range(-30, 30));
    if (a < b) {
      ASSERT_LT(encode_ordered(a), encode_ordered(b)) << a << " " << b;
    } else if (a > b) {
      ASSERT_GT(encode_ordered(a), encode_ordered(b));
    }
  }
}

TEST(OrderedKey, BottomBelowEverything) {
  EXPECT_LT(kKeyBottom, encode_ordered(-std::numeric_limits<double>::infinity()));
  EXPECT_LT(kKeyBottom, encode_ordered(-1e308));
}

TEST(OrderedKey, SizeIdOrdering) {
  // Larger size wins; equal size -> smaller id wins under max.
  EXPECT_GT(encode_size_id(10, 3), encode_size_id(9, 0));
  EXPECT_GT(encode_size_id(10, 3), encode_size_id(10, 5));
  EXPECT_EQ(decode_size(encode_size_id(1234, 77)), 1234u);
  EXPECT_EQ(decode_id(encode_size_id(1234, 77)), 77u);
}

// ---------------------------------------------------------------------------
// Fixture: a DRR forest with values.

struct MaxSetup {
  RngFactory rngs;
  DrrResult drr;
  std::vector<std::uint64_t> keys;
  std::uint64_t true_max_key = kKeyBottom;

  MaxSetup(std::uint32_t n, std::uint64_t seed) : rngs{seed}, drr{run_drr(n, rngs)} {
    Rng vr{seed + 999};
    keys.assign(n, kKeyBottom);
    for (NodeId r : drr.forest.roots()) {
      keys[r] = encode_ordered(vr.next_uniform(-50, 50));
      true_max_key = std::max(true_max_key, keys[r]);
    }
  }
};

TEST(GossipMax, AllRootsReachConsensusAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    MaxSetup s{1024, seed};
    const auto r = run_gossip_max(s.drr.forest, s.keys, s.rngs);
    for (NodeId root : s.drr.forest.roots())
      ASSERT_EQ(r.key[root], s.true_max_key) << "seed " << seed << " root " << root;
  }
}

TEST(GossipMax, Theorem5ConstantFractionAfterGossipProcedure) {
  // After the gossip procedure alone (before sampling), a constant
  // fraction of the roots must hold Max.
  for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
    MaxSetup s{2048, seed};
    const auto r = run_gossip_max(s.drr.forest, s.keys, s.rngs);
    const double frac =
        fraction_of_roots_with_key(s.drr.forest, r.key_after_gossip, s.true_max_key);
    EXPECT_GT(frac, 0.25) << seed;
  }
}

TEST(GossipMax, Theorem6ConsensusSurvivesModelLoss) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    MaxSetup s{1024, seed};
    const auto r =
        run_gossip_max(s.drr.forest, s.keys, s.rngs, sim::FaultSchedule{0.125, 0.0});
    for (NodeId root : s.drr.forest.roots()) ASSERT_EQ(r.key[root], s.true_max_key);
  }
}

TEST(GossipMax, PhaseIIIMessagesLinear) {
  // Gossip + sampling cost O(m log n) = O(n) messages: check messages/n
  // stays bounded as n grows 16x.
  MaxSetup small{1024, 3};
  MaxSetup big{16384, 3};
  const auto rs = run_gossip_max(small.drr.forest, small.keys, small.rngs);
  const auto rb = run_gossip_max(big.drr.forest, big.keys, big.rngs);
  const double per_small = static_cast<double>(rs.counters.sent) / 1024.0;
  const double per_big = static_cast<double>(rb.counters.sent) / 16384.0;
  EXPECT_LT(per_big, 2.0 * per_small);
}

TEST(GossipMax, RoundsLogarithmic) {
  MaxSetup s{4096, 21};
  const auto r = run_gossip_max(s.drr.forest, s.keys, s.rngs);
  // (gossip_mult + sampling_mult) * log2 n + drains.
  EXPECT_LE(r.rounds, 6 * 12 + 8 + 2);
}

TEST(DataSpread, ReachesAllRoots) {
  MaxSetup s{1024, 31};
  const NodeId src = s.drr.forest.largest_tree_root();
  const std::uint64_t key = encode_ordered(123.456);
  const auto r = run_data_spread(s.drr.forest, src, key, s.rngs);
  for (NodeId root : s.drr.forest.roots()) EXPECT_EQ(r.key[root], key);
}

TEST(DataSpread, RejectsNonRootSource) {
  MaxSetup s{256, 32};
  NodeId non_root = kNoParent;
  for (NodeId v = 0; v < 256; ++v)
    if (s.drr.forest.is_member(v) && !s.drr.forest.is_root(v)) {
      non_root = v;
      break;
    }
  ASSERT_NE(non_root, kNoParent);
  EXPECT_THROW(run_data_spread(s.drr.forest, non_root, 1, s.rngs), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Push-sum (Gossip-ave)

struct AveSetup {
  RngFactory rngs;
  DrrResult drr;
  std::vector<double> num0, den0;
  double true_ratio = 0.0;

  AveSetup(std::uint32_t n, std::uint64_t seed) : rngs{seed}, drr{run_drr(n, rngs)} {
    Rng vr{seed + 777};
    num0.assign(n, 0.0);
    den0.assign(n, 0.0);
    double ns = 0.0, ds = 0.0;
    for (NodeId r : drr.forest.roots()) {
      num0[r] = vr.next_uniform(-10, 30);
      den0[r] = static_cast<double>(drr.forest.tree_size(r));
      ns += num0[r];
      ds += den0[r];
    }
    true_ratio = ns / ds;
  }
};

TEST(PushSum, MassConservedAtZeroLoss) {
  AveSetup s{1024, 41};
  double n0 = 0.0, d0 = 0.0;
  for (NodeId r : s.drr.forest.roots()) {
    n0 += s.num0[r];
    d0 += s.den0[r];
  }
  const auto r = run_root_push_sum(s.drr.forest, s.num0, s.den0, s.rngs);
  double n1 = 0.0, d1 = 0.0;
  for (NodeId root : s.drr.forest.roots()) {
    n1 += r.num[root];
    d1 += r.den[root];
  }
  EXPECT_NEAR(n1, n0, 1e-9 * std::max(1.0, std::fabs(n0)));
  EXPECT_NEAR(d1, d0, 1e-9 * d0);
}

TEST(PushSum, AllRootEstimatesConverge) {
  for (std::uint64_t seed : {42ull, 43ull, 44ull}) {
    AveSetup s{1024, seed};
    PushSumConfig cfg;
    cfg.rounds_multiplier = 8.0;
    const auto r = run_root_push_sum(s.drr.forest, s.num0, s.den0, s.rngs, {}, cfg);
    for (NodeId root : s.drr.forest.roots()) {
      ASSERT_GT(r.den[root], 0.0);
      EXPECT_NEAR(r.estimate[root], s.true_ratio,
                  1e-3 * std::max(1.0, std::fabs(s.true_ratio)));
    }
  }
}

TEST(PushSum, RatioConsistentUnderLoss) {
  // (num, den) travel together, so the estimate stays *consistent* under
  // loss: all roots converge to the ratio of the surviving mass, which is
  // a small random drift away from the true ratio (each dropped message
  // removes a pair whose local ratio deviates from the global one).
  // Empirically the drift at delta = 1/8 is a few percent.
  AveSetup s{2048, 51};
  PushSumConfig cfg;
  cfg.rounds_multiplier = 8.0;
  const auto r =
      run_root_push_sum(s.drr.forest, s.num0, s.den0, s.rngs, sim::FaultSchedule{0.125, 0.0}, cfg);
  const NodeId z = s.drr.forest.largest_tree_root();
  EXPECT_NEAR(r.estimate[z], s.true_ratio, 0.15 * std::max(1.0, std::fabs(s.true_ratio)));
  // Consistency: every root agrees with z (consensus on the drifted value).
  for (NodeId root : s.drr.forest.roots()) {
    if (r.den[root] > 0.0) {
      EXPECT_NEAR(r.estimate[root], r.estimate[z], 1e-2);
    }
  }
}

TEST(PushSum, Lemma8PotentialHalves) {
  // Analysis mode: Phi_{t+1} <= Phi_t always (in conditional expectation
  // it halves); check the measured decay over a window.
  AveSetup s{1024, 61};
  PushSumConfig cfg;
  cfg.forward_via_trees = false;
  cfg.track_potential = true;
  cfg.rounds_multiplier = 4.0;
  const auto r = run_root_push_sum(s.drr.forest, s.num0, s.den0, s.rngs, {}, cfg);
  ASSERT_GE(r.potential_per_round.size(), 10u);
  // Geometric decay: after 10 rounds the potential should have dropped by
  // far more than 2^5 (expected 2^10).
  EXPECT_LT(r.potential_per_round[9], r.potential_per_round[0] / 32.0);
  // Monotone apart from numerical noise.
  for (std::size_t t = 1; t < std::min<std::size_t>(r.potential_per_round.size(), 20); ++t)
    EXPECT_LE(r.potential_per_round[t], r.potential_per_round[t - 1] * 1.5);
}

TEST(PushSum, Theorem7LargestRootErrorSmall) {
  AveSetup s{4096, 62};
  PushSumConfig cfg;
  cfg.forward_via_trees = false;
  cfg.track_potential = true;
  const auto r = run_root_push_sum(s.drr.forest, s.num0, s.den0, s.rngs, {}, cfg);
  const double err = std::fabs(r.z_estimate_per_round.back() - s.true_ratio) /
                     std::max(1.0, std::fabs(s.true_ratio));
  EXPECT_LT(err, 1e-6);
}

TEST(PushSum, SumModeWithIndicatorDenominator) {
  // den concentrated on one root -> common ratio limit is the global sum.
  AveSetup s{1024, 63};
  std::vector<double> den(1024, 0.0);
  den[s.drr.forest.largest_tree_root()] = 1.0;
  double true_sum = 0.0;
  for (NodeId r : s.drr.forest.roots()) true_sum += s.num0[r];
  PushSumConfig cfg;
  cfg.rounds_multiplier = 8.0;
  const auto r = run_root_push_sum(s.drr.forest, s.num0, den, s.rngs, {}, cfg);
  const NodeId z = s.drr.forest.largest_tree_root();
  EXPECT_NEAR(r.estimate[z], true_sum, 1e-3 * std::max(1.0, std::fabs(true_sum)));
}

TEST(PushSum, TrackingRequiresAnalysisMode) {
  AveSetup s{128, 64};
  PushSumConfig cfg;
  cfg.track_potential = true;
  cfg.forward_via_trees = true;
  EXPECT_THROW(run_root_push_sum(s.drr.forest, s.num0, s.den0, s.rngs, {}, cfg),
               std::invalid_argument);
}

TEST(PushSum, DeterministicFromSeed) {
  AveSetup s1{512, 65}, s2{512, 65};
  const auto a = run_root_push_sum(s1.drr.forest, s1.num0, s1.den0, s1.rngs);
  const auto b = run_root_push_sum(s2.drr.forest, s2.num0, s2.den0, s2.rngs);
  EXPECT_EQ(a.counters.sent, b.counters.sent);
  for (NodeId r : s1.drr.forest.roots()) EXPECT_DOUBLE_EQ(a.num[r], b.num[r]);
}

}  // namespace
}  // namespace drrg
