// Tests of Local-DRR (§4) and its Theorem 11/13 observables on arbitrary
// graphs.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "drr/local_drr.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "topology/builders.hpp"

namespace drrg {
namespace {

LocalDrrResult run(const Graph& g, std::uint64_t seed, sim::FaultSchedule fm = {},
                   LocalDrrConfig cfg = {}) {
  RngFactory rngs{seed};
  return run_local_drr(g, rngs, fm, cfg);
}

struct NamedGraph {
  std::string name;
  std::function<Graph(std::uint64_t)> build;
};

class LocalDrrOnGraphs : public ::testing::TestWithParam<int> {
 protected:
  static Graph build(int which, std::uint64_t seed) {
    switch (which) {
      case 0: return make_ring(2048);
      case 1: return make_grid(40, 50, /*torus=*/true);
      case 2: return make_random_regular(2048, 8, seed);
      case 3: return make_erdos_renyi(2048, 8.0 / 2048, seed);
      case 4: return make_chord_graph(2048);
      default: return make_hypercube(11);
    }
  }
};

TEST_P(LocalDrrOnGraphs, ParentsAreNeighborsWithHigherRank) {
  const Graph g = build(GetParam(), 11);
  const LocalDrrResult r = run(g, 21);
  EXPECT_TRUE(r.forest.respects_ranks(r.ranks));
  for (NodeId v = 0; v < g.size(); ++v) {
    const NodeId p = r.forest.parent(v);
    if (p != kNoParent) {
      EXPECT_TRUE(g.has_edge(v, p)) << v;
    }
  }
}

TEST_P(LocalDrrOnGraphs, RootsAreLocalRankMaxima) {
  // At delta = 0 every node hears every neighbor's rank, so a root must
  // outrank all neighbors and a non-root connects to its best neighbor.
  const Graph g = build(GetParam(), 13);
  const LocalDrrResult r = run(g, 23);
  for (NodeId v = 0; v < g.size(); ++v) {
    double best = -1.0;
    NodeId best_nb = kNoParent;
    for (NodeId w : g.neighbors(v)) {
      if (r.ranks[w] > best) {
        best = r.ranks[w];
        best_nb = w;
      }
    }
    if (r.forest.is_root(v)) {
      EXPECT_LT(best, r.ranks[v]) << v;
    } else {
      EXPECT_EQ(r.forest.parent(v), best_nb) << v;
    }
  }
}

TEST_P(LocalDrrOnGraphs, Theorem11HeightLogarithmic) {
  const Graph g = build(GetParam(), 17);
  std::uint32_t worst = 0;
  for (int s = 0; s < 4; ++s) worst = std::max(worst, run(g, 30 + s).forest.max_tree_height());
  EXPECT_LE(worst, 6 * ceil_log2(g.size()));
}

TEST_P(LocalDrrOnGraphs, Theorem13TreeCountMatchesDegreeFormula) {
  const Graph g = build(GetParam(), 19);
  const double expected = g.inverse_degree_plus_one_sum();
  double mean = 0.0;
  const int trials = 6;
  for (int s = 0; s < trials; ++s) mean += run(g, 40 + s).forest.num_trees();
  mean /= trials;
  EXPECT_GT(mean, 0.6 * expected);
  EXPECT_LT(mean, 1.6 * expected);
}

INSTANTIATE_TEST_SUITE_P(Graphs, LocalDrrOnGraphs, ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(LocalDrr, RingTreeCountExactExpectation) {
  // On a ring every degree is 2: E[#trees] = n/3 exactly.
  const Graph g = make_ring(3000);
  double mean = 0.0;
  const int trials = 10;
  for (int s = 0; s < trials; ++s) mean += run(g, 100 + s).forest.num_trees();
  mean /= trials;
  EXPECT_NEAR(mean, 1000.0, 60.0);
}

TEST(LocalDrr, StarCollapsesToOneTreeUsually) {
  // Star: the hub has n-1 neighbors; all leaves connect to the hub unless
  // the hub outranks them... every leaf's only neighbor is the hub, so
  // leaves with rank < hub connect to it; leaves with rank > hub become
  // roots.  The hub is a root iff it beats its best leaf.
  const Graph g = make_star(64);
  const LocalDrrResult r = run(g, 3);
  for (NodeId v = 1; v < 64; ++v) {
    if (r.ranks[v] < r.ranks[0]) {
      EXPECT_EQ(r.forest.parent(v), 0u);
    } else {
      EXPECT_TRUE(r.forest.is_root(v));
    }
  }
}

TEST(LocalDrr, MessageComplexityLinearInEdges) {
  const Graph g = make_random_regular(1024, 6, 5);
  const LocalDrrResult r = run(g, 6);
  // Two exchange rounds send one message per direction per edge per round
  // (4|E| total), plus at most a few connect/ack messages per node.
  EXPECT_LE(r.counters.sent, 4 * 2 * g.edge_count() + 4 * g.size());
  EXPECT_GE(r.counters.sent, 2 * g.edge_count());
}

TEST(LocalDrr, ConstantTimeAtZeroLoss) {
  const Graph g = make_grid(30, 30);
  const LocalDrrResult r = run(g, 7);
  // exchange_rounds (2) + connect round + slack; far below log n.
  EXPECT_LE(r.rounds, 6u);
}

TEST(LocalDrr, DeterministicFromSeed) {
  const Graph g = make_erdos_renyi(512, 0.02, 3);
  const LocalDrrResult a = run(g, 99), b = run(g, 99);
  for (NodeId v = 0; v < g.size(); ++v) EXPECT_EQ(a.forest.parent(v), b.forest.parent(v));
}

TEST(LocalDrr, LossKeepsForestValid) {
  const Graph g = make_random_regular(1024, 8, 9);
  const LocalDrrResult r = run(g, 10, sim::FaultSchedule{0.125, 0.0});
  EXPECT_TRUE(r.forest.respects_ranks(r.ranks));
  for (NodeId v = 0; v < g.size(); ++v) {
    const NodeId p = r.forest.parent(v);
    if (p != kNoParent) {
      EXPECT_TRUE(g.has_edge(v, p));
    }
  }
}

TEST(LocalDrr, CrashesExcludeNodes) {
  const Graph g = make_grid(32, 32, true);
  const LocalDrrResult r = run(g, 11, sim::FaultSchedule{0.0, 0.2});
  std::uint32_t members = 0;
  for (NodeId v = 0; v < g.size(); ++v) members += r.forest.is_member(v);
  EXPECT_LT(members, g.size());
  std::uint32_t total = 0;
  for (NodeId root : r.forest.roots()) total += r.forest.tree_size(root);
  EXPECT_EQ(total, members);
}

TEST(LocalDrr, RejectsCompleteGraph) {
  RngFactory rngs{1};
  EXPECT_THROW(run_local_drr(Graph::complete(16), rngs), std::invalid_argument);
}

}  // namespace
}  // namespace drrg
