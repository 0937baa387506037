// Theorem-backed property tests for the §4 sparse pipeline.
//
//   * Theorem 11: every tree Local-DRR produces has height O(log n) on
//     any graph -- pinned as max-over-seeds height <= 1.5 * log2 n on the
//     Chord overlay, the grid, a random-regular graph and the path (the
//     measured maxima sit near 0.6 * log2 n, so the bound has real teeth:
//     any height linear in n, or even polylog with a larger exponent,
//     trips it at these sizes).
//   * Theorem 13: E[#trees] = sum_i 1/(d_i + 1).  A node roots exactly
//     when it is a local rank maximum, which happens with probability
//     1/(d_i + 1) for i.i.d. ranks; the sample mean over seeds must sit
//     inside a 4-sigma confidence interval of the exact sum (and within
//     2% of it, whichever is looser).
//   * Assumption 2: the SparseRouter's begin_random/next_hop expansion
//     must land (near-)uniformly -- every node's landing frequency within
//     a constant factor of 1/n -- and begin_directed must arrive at its
//     target on the keyed substrates.
//
// These allocate the largest graphs in the suite (n = 4096), which is
// exactly why CI runs them under ASan + UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "aggregate/routing.hpp"
#include "aggregate/sparse.hpp"
#include "drr/local_drr.hpp"
#include "sim/topology.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"
#include "topology/builders.hpp"

namespace drrg {
namespace {

constexpr int kSeeds = 24;

struct GraphCase {
  const char* name;
  Graph graph;
};

std::vector<GraphCase> theorem_graphs() {
  std::vector<GraphCase> cases;
  cases.push_back({"chord-overlay-1k", overlay_graph(ChordOverlay{1024, 5})});
  cases.push_back({"chord-overlay-4k", overlay_graph(ChordOverlay{4096, 5})});
  cases.push_back(
      {"grid-1k", *sim::make_topology({sim::TopologyKind::kGrid2d}, 1024, 3).graph()});
  {
    sim::TopologySpec spec{sim::TopologyKind::kRandomRegular};
    spec.degree = 8;
    cases.push_back({"random-regular-4k", *sim::make_topology(spec, 4096, 3).graph()});
  }
  cases.push_back({"path-4k", make_path(4096)});
  return cases;
}

TEST(Theorem11, LocalDrrTreeHeightIsLogarithmic) {
  for (const GraphCase& c : theorem_graphs()) {
    const double bound = 1.5 * log2_clamped(c.graph.size());
    std::uint32_t worst = 0;
    for (int s = 0; s < kSeeds; ++s) {
      const auto r = run_local_drr(c.graph, RngFactory{1000 + static_cast<std::uint64_t>(s)});
      worst = std::max(worst, r.forest.max_tree_height());
    }
    EXPECT_LE(static_cast<double>(worst), bound) << c.name;
    EXPECT_GT(worst, 0u) << c.name;  // trees are real, not all singletons
  }
}

TEST(Theorem13, ExpectedTreeCountIsSumOfInverseDegreePlusOne) {
  for (const GraphCase& c : theorem_graphs()) {
    const std::uint32_t n = c.graph.size();
    double expect = 0.0;
    for (NodeId v = 0; v < n; ++v)
      expect += 1.0 / (static_cast<double>(c.graph.degree(v)) + 1.0);

    double sum = 0.0, sum_sq = 0.0;
    for (int s = 0; s < kSeeds; ++s) {
      const auto r = run_local_drr(c.graph, RngFactory{2000 + static_cast<std::uint64_t>(s)});
      const auto trees = static_cast<double>(r.forest.num_trees());
      sum += trees;
      sum_sq += trees * trees;
    }
    const double mean = sum / kSeeds;
    const double var = std::max(0.0, sum_sq / kSeeds - mean * mean);
    const double sem = std::sqrt(var / kSeeds);
    const double margin = std::max(4.0 * sem, 0.02 * expect);
    EXPECT_NEAR(mean, expect, margin)
        << c.name << ": mean " << mean << " vs sum 1/(d+1) = " << expect;
  }
}

// ---------------------------------------------------------------------------
// Assumption 2: the routed sampler's landing distribution.

/// Expands one begin_random route to its landing node (no engine: static
/// liveness, hop count returned via *hops).
NodeId land(const SparseRouter& router, NodeId src, Rng& rng, std::uint32_t* hops) {
  RouteState st = router.begin_random(src, rng);
  NodeId at = src;
  *hops = 0;
  while (st.mode != RouteState::Mode::kDone) {
    const NodeId next = router.next_hop(at, st, rng);
    if (next == at) break;
    at = next;
    ++*hops;
  }
  return at;
}

void expect_near_uniform_landings(const char* name, const SparseRouter& router,
                                  std::uint32_t n, double spread,
                                  std::uint32_t hop_bound) {
  Rng rng{77};
  std::vector<std::uint32_t> hits(n, 0);
  const std::uint32_t draws_per_node = 256;
  std::uint64_t total_hops = 0;
  for (NodeId src = 0; src < n; src += 7) {
    for (std::uint32_t d = 0; d < draws_per_node; ++d) {
      std::uint32_t hops = 0;
      hits[land(router, src, rng, &hops)] += 1;
      total_hops += hops;
      EXPECT_LE(hops, hop_bound) << name;
    }
  }
  const double draws = static_cast<double>(draws_per_node) * ((n + 6) / 7);
  const auto [lo, hi] = std::minmax_element(hits.begin(), hits.end());
  // Every node is reachable and no node is grossly over-selected.
  EXPECT_GT(*lo, 0u) << name;
  EXPECT_LT(static_cast<double>(*hi), spread * draws / n) << name;
  EXPECT_GT(total_hops, 0u) << name;
}

TEST(Assumption2, ChordRoutedSamplingIsNearUniform) {
  const std::uint32_t n = 1024;
  ChordOverlay chord{n, 11};
  const SparseRouter router = SparseRouter::on_chord(chord);
  expect_near_uniform_landings("chord", router, n, /*spread=*/3.0,
                               router.max_route_hops());
}

// Chord's begin_random on its own: draws from random sources land on every
// node within a constant factor of the mean, at O(log n) hops per draw.
TEST(Assumption2, ChordSamplerCoversEveryNode) {
  ChordOverlay c{256, 11};
  const SparseRouter router = SparseRouter::on_chord(c);
  Rng rng{13};
  std::vector<std::uint64_t> counts(c.size(), 0);
  std::uint32_t hops = 0;
  for (int i = 0; i < 100000; ++i)
    ++counts[land(router, static_cast<NodeId>(rng.next_below(c.size())), rng, &hops)];
  const double expected = 100000.0 / c.size();
  for (NodeId v = 0; v < c.size(); ++v) {
    EXPECT_GT(counts[v], 0u) << "node " << v << " never sampled";
    // Smearing over S arcs keeps every node within a constant factor.
    EXPECT_GT(static_cast<double>(counts[v]), expected / 8.0);
    EXPECT_LT(static_cast<double>(counts[v]), expected * 8.0);
  }
}

TEST(Assumption2, ChordSamplerHopsLogarithmic) {
  ChordOverlay c{1024, 12};
  const SparseRouter router = SparseRouter::on_chord(c);
  Rng rng{17};
  double total = 0.0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    std::uint32_t hops = 0;
    (void)land(router, static_cast<NodeId>(rng.next_below(c.size())), rng, &hops);
    total += hops;
  }
  // Routing ~ (1/2) log n plus the successor walk ~ S/2.
  EXPECT_LE(total / trials, 3.0 * 10.0);
}

TEST(Assumption2, GridRoutedSamplingIsExactlyUniform) {
  const sim::Topology t = sim::make_topology({sim::TopologyKind::kGrid2d}, 1024, 3);
  const SparseRouter router = SparseRouter::on_substrate(t);
  expect_near_uniform_landings("grid", router, 1024, /*spread=*/2.0,
                               router.max_route_hops());
}

TEST(Assumption2, ExpanderWalkSamplingIsNearUniform) {
  sim::TopologySpec spec{sim::TopologyKind::kRandomRegular};
  spec.degree = 8;
  const sim::Topology t = sim::make_topology(spec, 1024, 9);
  const SparseRouter router = SparseRouter::on_substrate(t);
  expect_near_uniform_landings("random-regular", router, 1024, /*spread=*/2.0,
                               router.max_route_hops());
}

TEST(Assumption2, DirectedRoutesArriveOnKeyedSubstrates) {
  const std::uint32_t n = 512;
  ChordOverlay chord{n, 13};
  const SparseRouter chord_router = SparseRouter::on_chord(chord);
  const sim::Topology grid = sim::make_topology({sim::TopologyKind::kGrid2d}, n, 3);
  const SparseRouter grid_router = SparseRouter::on_substrate(grid);
  Rng rng{5};
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<NodeId>(rng.next_below(n));
    const auto dst = static_cast<NodeId>(rng.next_below(n));
    for (const SparseRouter* router : {&chord_router, &grid_router}) {
      RouteState st = router->begin_directed(dst);
      NodeId at = src;
      std::uint32_t guard = 0;
      while (st.mode != RouteState::Mode::kDone && guard++ < router->max_route_hops()) {
        const NodeId next = router->next_hop(at, st, rng);
        if (next == at) break;
        at = next;
      }
      EXPECT_EQ(at, dst) << "src " << src;
    }
  }
}

TEST(Assumption2, ChordRoutingDetoursAroundCrashedNodes) {
  // Kill a band of nodes; every route between surviving nodes must still
  // arrive (the stabilized successor/finger repair of routing.hpp).  The
  // static router would funnel through dead predecessors and stall.
  const std::uint32_t n = 512;
  ChordOverlay chord{n, 17};
  const SparseRouter router = SparseRouter::on_chord(chord);
  std::vector<std::uint8_t> dead(n, 0);
  for (NodeId v = 0; v < n; v += 3) dead[v] = 1;  // a third of the overlay
  const LivenessView alive{&dead, [](const void* ctx, NodeId v) {
                             return (*static_cast<const std::vector<std::uint8_t>*>(
                                        ctx))[v] == 0;
                           }};
  Rng rng{3};
  for (int i = 0; i < 200; ++i) {
    NodeId src = static_cast<NodeId>(rng.next_below(n));
    NodeId dst = static_cast<NodeId>(rng.next_below(n));
    if (dead[src]) src = (src + 1) % n;
    if (dead[src]) src = (src + 1) % n;
    while (dead[dst]) dst = (dst + 1) % n;
    RouteState st = router.begin_directed(dst);
    NodeId at = src;
    std::uint32_t guard = 0;
    while (st.mode != RouteState::Mode::kDone && guard++ < 4 * router.max_route_hops()) {
      const NodeId next = router.next_hop(at, st, rng, alive);
      if (next == at) break;
      EXPECT_FALSE(dead[next]) << "route stepped on a crashed node";
      at = next;
    }
    EXPECT_EQ(at, dst);
  }
}

}  // namespace
}  // namespace drrg
