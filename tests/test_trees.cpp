// Tests of Phase II: Convergecast (Algorithms 2/3) and tree broadcast.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "drr/drr.hpp"
#include "support/rng.hpp"
#include "trees/broadcast.hpp"
#include "trees/convergecast.hpp"

namespace drrg {
namespace {

/// Fixed forest:  4 <- {2 <- {0,1}, 3}   and   5 <- 6.
Forest sample_forest() {
  return Forest::from_parents({2, 2, 4, 4, kNoParent, kNoParent, 5});
}

std::vector<double> sample_values() { return {3.0, -1.0, 7.0, 2.0, 0.5, 10.0, 4.0}; }

TEST(Convergecast, MaxExact) {
  RngFactory rngs{1};
  const Forest f = sample_forest();
  const auto r = run_convergecast(f, sample_values(), ConvergecastOp::kMax, rngs);
  EXPECT_TRUE(r.complete);
  EXPECT_DOUBLE_EQ(r.aggregate[4], 7.0);   // max of {3,-1,7,2,0.5}
  EXPECT_DOUBLE_EQ(r.aggregate[5], 10.0);  // max of {10,4}
}

TEST(Convergecast, MinExact) {
  RngFactory rngs{2};
  const Forest f = sample_forest();
  const auto r = run_convergecast(f, sample_values(), ConvergecastOp::kMin, rngs);
  EXPECT_DOUBLE_EQ(r.aggregate[4], -1.0);
  EXPECT_DOUBLE_EQ(r.aggregate[5], 4.0);
}

TEST(Convergecast, SumCarriesValueAndCount) {
  RngFactory rngs{3};
  const Forest f = sample_forest();
  const auto r = run_convergecast(f, sample_values(), ConvergecastOp::kSum, rngs);
  EXPECT_DOUBLE_EQ(r.aggregate[4], 3.0 - 1.0 + 7.0 + 2.0 + 0.5);
  EXPECT_DOUBLE_EQ(r.weight[4], 5.0);  // covsum(z, 2) = tree size
  EXPECT_DOUBLE_EQ(r.aggregate[5], 14.0);
  EXPECT_DOUBLE_EQ(r.weight[5], 2.0);
}

TEST(Convergecast, OneMessagePerNonRootAtZeroLoss) {
  RngFactory rngs{4};
  const Forest f = sample_forest();
  const auto r = run_convergecast(f, sample_values(), ConvergecastOp::kSum, rngs);
  // 5 non-roots: one value + one ack each.
  EXPECT_EQ(r.counters.sent, 10u);
}

TEST(Convergecast, TimeIsHeightBoundAtZeroLoss) {
  RngFactory rngs{5};
  const Forest f = sample_forest();
  const auto r = run_convergecast(f, sample_values(), ConvergecastOp::kMax, rngs);
  EXPECT_LE(r.rounds, f.max_tree_height() + 1);
}

TEST(Convergecast, ExactOnDrrForests) {
  for (std::uint64_t seed : {10ull, 11ull, 12ull}) {
    RngFactory rngs{seed};
    const std::uint32_t n = 1024;
    const DrrResult drr = run_drr(n, rngs);
    Rng vr{seed * 7 + 1};
    std::vector<double> values(n);
    for (auto& v : values) v = vr.next_uniform(-100, 100);

    const auto mx = run_convergecast(drr.forest, values, ConvergecastOp::kMax, rngs);
    ASSERT_TRUE(mx.complete);
    const auto sm = run_convergecast(drr.forest, values, ConvergecastOp::kSum, rngs);
    ASSERT_TRUE(sm.complete);

    // Verify each root against a direct per-tree computation.
    for (NodeId root : drr.forest.roots()) {
      double true_max = -1e300, true_sum = 0.0;
      std::uint32_t count = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (drr.forest.root_of(v) == root) {
          true_max = std::max(true_max, values[v]);
          true_sum += values[v];
          ++count;
        }
      }
      EXPECT_DOUBLE_EQ(mx.aggregate[root], true_max);
      EXPECT_NEAR(sm.aggregate[root], true_sum, 1e-9);
      EXPECT_DOUBLE_EQ(sm.weight[root], static_cast<double>(count));
      EXPECT_EQ(count, drr.forest.tree_size(root));
    }
  }
}

TEST(Convergecast, CompletesUnderLoss) {
  RngFactory rngs{20};
  const DrrResult drr = run_drr(512, rngs);
  std::vector<double> values(512, 1.0);
  const auto r = run_convergecast(drr.forest, values, ConvergecastOp::kSum, rngs,
                                  sim::FaultSchedule{0.125, 0.0});
  EXPECT_TRUE(r.complete);
  // Weights still exact: acked retries guarantee exactly-once absorption.
  double total = 0.0;
  for (NodeId root : drr.forest.roots()) total += r.weight[root];
  EXPECT_DOUBLE_EQ(total, 512.0);
  // Retries cost extra messages.
  EXPECT_GT(r.counters.lost, 0u);
}

TEST(Convergecast, ThrowsOnShortInput) {
  RngFactory rngs{1};
  const Forest f = sample_forest();
  std::vector<double> tooshort(3, 0.0);
  EXPECT_THROW(run_convergecast(f, tooshort, ConvergecastOp::kMax, rngs),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Broadcast

TEST(Broadcast, DeliversRootPayloadToAllMembers) {
  RngFactory rngs{30};
  const Forest f = sample_forest();
  std::vector<double> payload(7, 0.0);
  payload[4] = 42.0;
  payload[5] = 9.0;
  const auto r = run_broadcast(f, payload, rngs);
  EXPECT_TRUE(r.complete);
  for (NodeId v : {0u, 1u, 2u, 3u}) EXPECT_DOUBLE_EQ(r.received[v], 42.0) << v;
  EXPECT_DOUBLE_EQ(r.received[6], 9.0);
  EXPECT_DOUBLE_EQ(r.received[4], 42.0);  // roots keep their own
}

TEST(Broadcast, OneValueMessagePerNonRootAtZeroLoss) {
  RngFactory rngs{31};
  const Forest f = sample_forest();
  std::vector<double> payload(7, 1.0);
  const auto r = run_broadcast(f, payload, rngs);
  EXPECT_EQ(r.counters.sent, 10u);  // 5 values + 5 acks
}

TEST(Broadcast, SequentialRespectsOneCallPerRound) {
  // A root with k children takes k rounds in sequential mode.
  const std::uint32_t k = 9;
  std::vector<NodeId> parent(k + 1, 0);
  parent[0] = kNoParent;
  const Forest f = Forest::from_parents(parent);
  RngFactory rngs{32};
  std::vector<double> payload(k + 1, 3.0);
  const auto r = run_broadcast(f, payload, rngs);
  EXPECT_TRUE(r.complete);
  EXPECT_GE(r.rounds, k);
}

TEST(Broadcast, SimultaneousModeIsHeightBound) {
  const std::uint32_t k = 9;
  std::vector<NodeId> parent(k + 1, 0);
  parent[0] = kNoParent;
  const Forest f = Forest::from_parents(parent);
  RngFactory rngs{33};
  std::vector<double> payload(k + 1, 3.0);
  BroadcastConfig cfg;
  cfg.simultaneous_children = true;
  const auto r = run_broadcast(f, payload, rngs, {}, cfg);
  EXPECT_TRUE(r.complete);
  EXPECT_LE(r.rounds, 2u);
}

TEST(Broadcast, CompletesUnderLoss) {
  RngFactory rngs{34};
  const DrrResult drr = run_drr(1024, rngs);
  std::vector<double> payload(1024, 0.0);
  for (NodeId root : drr.forest.roots()) payload[root] = static_cast<double>(root);
  const auto r = run_broadcast(drr.forest, payload, rngs, sim::FaultSchedule{0.125, 0.0});
  EXPECT_TRUE(r.complete);
  for (NodeId v = 0; v < 1024; ++v)
    EXPECT_DOUBLE_EQ(r.received[v], static_cast<double>(drr.forest.root_of(v))) << v;
}

TEST(Broadcast, DeterministicFromSeed) {
  RngFactory rngs{35};
  const DrrResult drr = run_drr(256, rngs);
  std::vector<double> payload(256, 1.5);
  const auto a = run_broadcast(drr.forest, payload, rngs, sim::FaultSchedule{0.1, 0.0});
  const auto b = run_broadcast(drr.forest, payload, rngs, sim::FaultSchedule{0.1, 0.0});
  EXPECT_EQ(a.counters.sent, b.counters.sent);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Broadcast, SingletonForestNeedsNoMessages) {
  const Forest f = Forest::from_parents(std::vector<NodeId>(5, kNoParent));
  RngFactory rngs{36};
  std::vector<double> payload(5, 2.0);
  const auto r = run_broadcast(f, payload, rngs);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.counters.sent, 0u);
}

}  // namespace
}  // namespace drrg
