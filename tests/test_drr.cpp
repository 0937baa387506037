// Tests of Phase I: the DRR algorithm (Algorithm 1) and its Theorem 2/3/4
// observables.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "drr/drr.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace drrg {
namespace {

DrrResult run(std::uint32_t n, std::uint64_t seed, sim::FaultSchedule fm = {},
              DrrConfig cfg = {}) {
  RngFactory rngs{seed};
  return run_drr(n, rngs, fm, cfg);
}

// ---------------------------------------------------------------------------
// Structural invariants, parameterised over (n, seed, loss).

class DrrInvariants
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t, double>> {};

TEST_P(DrrInvariants, ForestIsValidAndRankRespecting) {
  const auto [n, seed, delta] = GetParam();
  const DrrResult r = run(n, seed, sim::FaultSchedule{delta, 0.0});
  // Forest::from_parents would have thrown on a cycle; check ranks.
  EXPECT_TRUE(r.forest.respects_ranks(r.ranks));
  // Every node is a member and in exactly one tree.
  std::uint32_t total = 0;
  for (NodeId root : r.forest.roots()) total += r.forest.tree_size(root);
  EXPECT_EQ(total, n);
}

TEST_P(DrrInvariants, TimeWithinBudget) {
  const auto [n, seed, delta] = GetParam();
  const DrrResult r = run(n, seed, sim::FaultSchedule{delta, 0.0});
  // Probe budget + connect retries + slack (the run_drr hard cap).
  EXPECT_LE(r.rounds, drr_probe_budget(n) + 8 + 2);
}

TEST_P(DrrInvariants, ProbeCountWithinPerNodeBudget) {
  const auto [n, seed, delta] = GetParam();
  const DrrResult r = run(n, seed, sim::FaultSchedule{delta, 0.0});
  EXPECT_LE(r.total_probes, static_cast<std::uint64_t>(n) * drr_probe_budget(n));
  EXPECT_GE(r.total_probes, static_cast<std::uint64_t>(n));  // everyone probes once
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DrrInvariants,
    ::testing::Combine(::testing::Values(64u, 256u, 1024u, 4096u),
                       ::testing::Values(1ull, 2ull, 3ull),
                       ::testing::Values(0.0, 0.125)));

// ---------------------------------------------------------------------------
// Theorem 2: number of trees is Theta(n / log n).

TEST(DrrTheorem2, TreeCountNearPrediction) {
  // E[#trees] = sum_i (i/n)^(d) ~ n/(d+1) with d = log2(n)-1 probes.
  for (const std::uint32_t n : {1024u, 4096u}) {
    const double d = drr_probe_budget(n);
    const double expected = static_cast<double>(n) / (d + 1.0);
    double total = 0.0;
    const int trials = 8;
    for (int s = 0; s < trials; ++s)
      total += static_cast<double>(run(n, 100 + s).forest.num_trees());
    const double mean = total / trials;
    EXPECT_GT(mean, 0.5 * expected) << n;
    EXPECT_LT(mean, 2.5 * expected) << n;
  }
}

TEST(DrrTheorem2, TreeCountConcentrates) {
  // Theorem 2: #trees <= 6 E[X] whp; check a generous multiple.
  const std::uint32_t n = 2048;
  const double expected = static_cast<double>(n) / (drr_probe_budget(n) + 1.0);
  for (int s = 0; s < 12; ++s)
    EXPECT_LT(run(n, 500 + s).forest.num_trees(), 6 * expected);
}

// ---------------------------------------------------------------------------
// Theorem 3: every tree has O(log n) nodes.

TEST(DrrTheorem3, MaxTreeSizeLogarithmic) {
  for (const std::uint32_t n : {256u, 1024u, 4096u, 16384u}) {
    std::uint32_t worst = 0;
    for (int s = 0; s < 6; ++s) worst = std::max(worst, run(n, 900 + s).forest.max_tree_size());
    // c log2 n: the theorem's constant is large ("c sufficiently large");
    // empirically the max over seeds sits around 12-15 x log2 n.
    EXPECT_LE(worst, 30 * ceil_log2(n)) << n;
  }
}

TEST(DrrTheorem3, MaxSizeGrowsSublinearly) {
  // Ratio max_size/n must fall sharply with n (it is O(log n / n)).
  const double r1 =
      static_cast<double>(run(256, 42).forest.max_tree_size()) / 256.0;
  const double r2 =
      static_cast<double>(run(16384, 42).forest.max_tree_size()) / 16384.0;
  EXPECT_LT(r2, r1 / 8.0);
}

// ---------------------------------------------------------------------------
// Theorem 4: O(n log log n) messages, O(log n) rounds.

TEST(DrrTheorem4, ProbesPerNodeIsLogLog) {
  // E[probes per node] = O(log d) = O(log log n): check it grows much
  // slower than log n and stays within a small constant of log2 log2 n.
  for (const std::uint32_t n : {256u, 4096u, 65536u}) {
    const DrrResult r = run(n, 7);
    const double per_node = static_cast<double>(r.total_probes) / n;
    EXPECT_LT(per_node, 4.0 * loglog2_clamped(n)) << n;
    EXPECT_GE(per_node, 1.0) << n;
  }
}

TEST(DrrTheorem4, MessagesScaleAsNLogLog) {
  // messages / (n log log n) should stay bounded as n grows 256x, both
  // fault-free and at the model's loss ceiling delta = 1/8.
  for (const double delta : {0.0, 0.125}) {
    const sim::FaultSchedule faults{delta, 0.0};
    const DrrResult small = run(256, 9, faults);
    const DrrResult big = run(65536, 9, faults);
    const double c_small =
        static_cast<double>(small.counters.sent) / (256.0 * loglog2_clamped(256));
    const double c_big =
        static_cast<double>(big.counters.sent) / (65536.0 * loglog2_clamped(65536));
    EXPECT_LT(c_big, 3.0 * c_small) << delta;
    EXPECT_GT(c_big, c_small / 3.0) << delta;
  }
}

// ---------------------------------------------------------------------------
// Determinism and configuration.

TEST(Drr, DeterministicFromSeed) {
  const DrrResult a = run(512, 1234), b = run(512, 1234);
  EXPECT_EQ(a.forest.num_trees(), b.forest.num_trees());
  EXPECT_EQ(a.counters.sent, b.counters.sent);
  for (NodeId v = 0; v < 512; ++v) {
    EXPECT_EQ(a.forest.parent(v), b.forest.parent(v));
    EXPECT_EQ(a.ranks[v], b.ranks[v]);
  }
}

TEST(Drr, SeedsProduceDifferentForests) {
  const DrrResult a = run(512, 1), b = run(512, 2);
  bool any_diff = false;
  for (NodeId v = 0; v < 512; ++v) any_diff |= a.forest.parent(v) != b.forest.parent(v);
  EXPECT_TRUE(any_diff);
}

TEST(Drr, ProbeBudgetAblation) {
  // More probes -> fewer roots (monotone in expectation).
  DrrConfig few, many;
  few.probe_budget = 2;
  many.probe_budget = 2 * ceil_log2(4096);
  double roots_few = 0, roots_many = 0;
  for (int s = 0; s < 5; ++s) {
    roots_few += run(4096, 50 + s, {}, few).forest.num_trees();
    roots_many += run(4096, 50 + s, {}, many).forest.num_trees();
  }
  EXPECT_GT(roots_few, roots_many * 1.5);
}

TEST(Drr, CrashedNodesExcluded) {
  const DrrResult r = run(1024, 77, sim::FaultSchedule{0.0, 0.25});
  std::uint32_t members = 0;
  for (NodeId v = 0; v < 1024; ++v) members += r.forest.is_member(v);
  EXPECT_EQ(members, 768u);
  // All trees consist of members only (from_parents enforced it).
  std::uint32_t total = 0;
  for (NodeId root : r.forest.roots()) total += r.forest.tree_size(root);
  EXPECT_EQ(total, 768u);
}

TEST(Drr, HeavyLossStillYieldsValidForest) {
  const DrrResult r = run(512, 5, sim::FaultSchedule{0.4, 0.0});  // far above delta<1/8
  EXPECT_TRUE(r.forest.respects_ranks(r.ranks));
  EXPECT_GE(r.forest.num_trees(), 1u);
}

TEST(Drr, LossIncreasesTreeCount) {
  // Lost probes waste attempts, so more nodes end up as roots.
  double clean = 0, lossy = 0;
  for (int s = 0; s < 6; ++s) {
    clean += run(2048, 200 + s).forest.num_trees();
    lossy += run(2048, 200 + s, sim::FaultSchedule{0.3, 0.0}).forest.num_trees();
  }
  EXPECT_GT(lossy, clean);
}

TEST(Drr, RejectsDegenerateN) {
  RngFactory rngs{1};
  EXPECT_THROW(run_drr(1, rngs), std::invalid_argument);
}

TEST(Drr, MessageSizeBounded) {
  // Mean bits per message must be O(log n + log s): ranks are 3 log n bits.
  const std::uint32_t n = 4096;
  const DrrResult r = run(n, 3);
  const double mean_bits = static_cast<double>(r.counters.bits) /
                           static_cast<double>(r.counters.sent);
  EXPECT_LE(mean_bits, 4.0 * address_bits(n));
}

}  // namespace
}  // namespace drrg
