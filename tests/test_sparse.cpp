// Tests of the sparse-network pipeline (§4 / Theorem 14): Local-DRR +
// routed root gossip on the Chord overlay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "aggregate/routing.hpp"
#include "aggregate/sparse.hpp"
#include "api/registry.hpp"
#include "api/report_hash.hpp"
#include "baselines/chord_uniform.hpp"
#include "sim/topology.hpp"
#include "support/mathutil.hpp"
#include "support/rng.hpp"

namespace drrg {
namespace {

std::vector<double> make_values(std::uint32_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_uniform(0.0, 100.0);
  return v;
}

TEST(OverlayGraph, ConnectedWithLogDegrees) {
  ChordOverlay chord{1024, 3};
  const Graph g = overlay_graph(chord);
  EXPECT_EQ(g.size(), 1024u);
  EXPECT_TRUE(g.connected());
  // Successor + distinct fingers (+ incoming): Theta(log n).
  EXPECT_GE(g.min_degree(), 2u);
  EXPECT_LE(g.max_degree(), 12 * ceil_log2(1024));
  // Every overlay link is present as an edge.
  for (NodeId v = 0; v < chord.size(); v += 37) {
    EXPECT_TRUE(g.has_edge(v, chord.successor(v)) || v == chord.successor(v));
    for (std::uint32_t k = 0; k < chord.ring_bits(); k += 5) {
      const NodeId f = chord.finger(v, k);
      if (f != v) {
        EXPECT_TRUE(g.has_edge(v, f));
      }
    }
  }
}

TEST(OverlayGraph, MatchesSetReference) {
  // The plain reference: a std::set of every successor and finger link.
  for (const std::uint32_t n : {2u, 3u, 1024u}) {
    for (const std::uint32_t bits : {0u, ceil_log2(n), 62u}) {
      const ChordOverlay chord{n, 40 + n, bits};
      std::set<std::pair<NodeId, NodeId>> want;
      for (NodeId v = 0; v < n; ++v) {
        auto add = [&want, v](NodeId w) {
          if (w != v) want.emplace(std::min(v, w), std::max(v, w));
        };
        add(chord.successor(v));
        for (std::uint32_t k = 0; k < chord.ring_bits(); ++k) add(chord.finger(v, k));
      }
      std::vector<std::vector<NodeId>> adjacency(n);
      for (const auto& [a, b] : want) {
        adjacency[a].push_back(b);
        adjacency[b].push_back(a);
      }
      const Graph g = overlay_graph(chord);
      ASSERT_EQ(g.size(), n);
      ASSERT_EQ(g.edge_count(), want.size()) << "n=" << n << " bits=" << bits;
      for (NodeId v = 0; v < n; ++v) {
        std::sort(adjacency[v].begin(), adjacency[v].end());
        const auto got = g.neighbors(v);
        ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), adjacency[v])
            << "n=" << n << " bits=" << bits << " node " << v;
      }
    }
  }
}

TEST(SparseRouter, ChordFastHopLiveHopAndResolveAgree) {
  // next_hop_fast (crash-free runs) and next_hop_live under an all-alive
  // view (the liveness-aware code every faulty run takes) must walk the
  // same routes hop for hop, and resolve (fault-free event time) must end
  // where they end after as many hops.
  const LivenessView all_alive{nullptr, [](const void*, NodeId) { return true; }};
  // With 11 bits half the ring points are ids: many successors sit at
  // distance 1, so fingers 0 and 1 differ, and finger floor(log2 d) still
  // often overshoots the key.
  for (const std::uint32_t bits : {0u, 11u, 62u}) {
    const ChordOverlay chord{1024, 17, bits};
    const SparseRouter router = SparseRouter::on_chord(chord);
    ASSERT_TRUE(router.keyed());
    auto walk = [&](NodeId src, RouteState st, bool fast) {
      std::vector<NodeId> path{src};
      for (std::uint32_t hop = 0; hop <= router.max_route_hops(); ++hop) {
        const NodeId at = path.back();
        const NodeId nh = fast ? router.next_hop_fast(at, st)
                               : router.next_hop_live(at, st, all_alive);
        if (nh == at) break;
        path.push_back(nh);
      }
      EXPECT_EQ(st.mode, RouteState::Mode::kDone);
      return path;
    };
    Rng rng{5 + bits};
    for (int i = 0; i < 2000; ++i) {
      const auto src = static_cast<NodeId>(rng.next_below(chord.size()));
      const RouteState sample = router.begin_random(src, rng);
      const std::vector<NodeId> path = walk(src, sample, true);
      ASSERT_EQ(path, walk(src, sample, false)) << "bits=" << bits << " route " << i;
      // A sample ends `steps` successors past the owner of its key.
      NodeId end = chord.owner_of_key(sample.target);
      for (std::uint32_t s = 0; s < sample.steps; ++s) end = chord.successor(end);
      ASSERT_EQ(path.back(), end);
      const RouteEnd resolved = router.resolve(src, sample);
      ASSERT_EQ(resolved.at, end) << "bits=" << bits << " route " << i;
      ASSERT_EQ(resolved.hops, path.size() - 1) << "bits=" << bits << " route " << i;

      const auto dst = static_cast<NodeId>(rng.next_below(chord.size()));
      const RouteState directed = router.begin_directed(dst);
      const std::vector<NodeId> to_dst = walk(src, directed, true);
      ASSERT_EQ(to_dst, walk(src, directed, false)) << "bits=" << bits << " route " << i;
      ASSERT_EQ(to_dst.back(), dst);
      const RouteEnd to_dst_resolved = router.resolve(src, directed);
      ASSERT_EQ(to_dst_resolved.at, dst) << "bits=" << bits << " route " << i;
      ASSERT_EQ(to_dst_resolved.hops, to_dst.size() - 1) << "bits=" << bits << " route " << i;
    }
  }
}

TEST(SparseRouter, LatticeResolveMatchesSteppedRoutes) {
  // Grids and tori with even sides (antipode ties) and odd ones: resolve
  // ends where stepping next_hop_fast ends, after as many hops.
  for (const bool torus : {false, true}) {
    for (const auto& [rows, cols] : {std::pair{16u, 16u}, std::pair{15u, 17u},
                                     std::pair{8u, 13u}}) {
      const sim::Topology lattice = sim::Topology::of_grid(rows, cols, torus);
      const SparseRouter router = SparseRouter::on_substrate(lattice);
      ASSERT_TRUE(router.keyed());
      const std::string what = std::string{torus ? "torus " : "grid "} +
                               std::to_string(rows) + "x" + std::to_string(cols);
      auto stepped = [&router](NodeId src, RouteState st) {
        RouteEnd end{src, 0};
        for (NodeId nh = router.next_hop_fast(src, st); nh != end.at;
             nh = router.next_hop_fast(nh, st)) {
          end.at = nh;
          ++end.hops;
        }
        return end;
      };
      Rng rng{rows * 100 + cols};
      for (int i = 0; i < 2000; ++i) {
        const auto src = static_cast<NodeId>(rng.next_below(rows * cols));
        const RouteState sample = router.begin_random(src, rng);
        const RouteEnd want = stepped(src, sample);
        const RouteEnd got = router.resolve(src, sample);
        ASSERT_EQ(got.at, want.at) << what << " random route " << i;
        ASSERT_EQ(got.hops, want.hops) << what << " random route " << i;

        const auto dst = static_cast<NodeId>(rng.next_below(rows * cols));
        const RouteState directed = router.begin_directed(dst);
        const RouteEnd to_dst = router.resolve(src, directed);
        ASSERT_EQ(to_dst.at, dst) << what << " directed route " << i;
        ASSERT_EQ(to_dst.hops, stepped(src, directed).hops) << what << " directed route " << i;
      }
    }
  }
  // Random walks draw per hop: the walk substrates are not keyed.
  const sim::Topology walk = sim::make_topology({sim::TopologyKind::kRandomRegular}, 64, 3);
  EXPECT_FALSE(SparseRouter::on_substrate(walk).keyed());
}

TEST(SparseRouter, TorusAntipodeTieGoesForward) {
  // On an even torus side both ways round are equally long; the route
  // steps forward (row + 1, then column + 1).  Detours under crashes walk
  // from this static path, so the pinned faulty sweeps depend on it.
  const sim::Topology torus = sim::Topology::of_grid(8, 6, true);
  const SparseRouter router = SparseRouter::on_substrate(torus);
  RouteState down = router.begin_directed(4 * 6 + 2);  // row 4, col 2
  EXPECT_EQ(router.next_hop_fast(0, down), 6u);          // row 1, col 0
  RouteState right = router.begin_directed(3);           // row 0, col 3
  EXPECT_EQ(router.next_hop_fast(0, right), 1u);         // row 0, col 1
}

TEST(SparsePipeline, RoundBudgetScalesAreRead) {
  // GossipMaxConfig::round_budget_scale stretches the routed gossip-max
  // and data-spread, PushSumConfig::round_budget_scale the routed
  // push-sum; an explicit 1 is the default run byte for byte.
  for (const char* algo : {"chord-drr", "drr"}) {
    api::RunSpec spec;
    spec.n = 1024;
    spec.seed = 7;
    if (std::string_view{algo} == "drr") {
      spec.topology.kind = sim::TopologyKind::kGrid2d;
      spec.pipeline = api::Pipeline::kSparse;
    }
    for (const api::Aggregate agg : {api::Aggregate::kMax, api::Aggregate::kAve}) {
      spec.aggregate = agg;
      spec.config = std::monostate{};
      const api::RunReport base = api::run(algo, spec);
      ASSERT_TRUE(base.ok()) << base.error;
      SparseGossipConfig cfg;
      cfg.gossip_max.round_budget_scale = 1.0;
      cfg.push_sum.round_budget_scale = 1.0;
      spec.config = cfg;
      EXPECT_EQ(api::report_checksum(api::run(algo, spec)), api::report_checksum(base)) << algo;

      cfg.gossip_max.round_budget_scale = 2.0;
      spec.config = cfg;
      const api::RunReport gm = api::run(algo, spec);
      // Max gossips in the gossip slot; Ave spreads in the spread slot.
      const sim::Counters& gm_base =
          agg == api::Aggregate::kMax ? base.phases.gossip : base.phases.spread;
      const sim::Counters& gm_scaled =
          agg == api::Aggregate::kMax ? gm.phases.gossip : gm.phases.spread;
      EXPECT_GT(gm_scaled.rounds, gm_base.rounds) << algo;
      EXPECT_GT(gm_scaled.sent, gm_base.sent) << algo;
      if (agg == api::Aggregate::kMax) continue;

      cfg.gossip_max.round_budget_scale = 1.0;
      cfg.push_sum.round_budget_scale = 2.0;
      spec.config = cfg;
      const api::RunReport ps = api::run(algo, spec);
      EXPECT_GT(ps.phases.gossip.rounds, base.phases.gossip.rounds) << algo;
      EXPECT_GT(ps.phases.gossip.sent, base.phases.gossip.sent) << algo;
    }
  }
}

TEST(SparsePipeline, MaxExactAcrossSeeds) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::uint32_t n = 512;
    ChordOverlay chord{n, seed};
    const Graph links = overlay_graph(chord);
    const auto values = make_values(n, seed + 100);
    const auto r = sparse_drr_gossip_max(chord, links, values, seed);
    EXPECT_DOUBLE_EQ(r.value, *std::max_element(values.begin(), values.end()));
    EXPECT_TRUE(r.consensus) << seed;
  }
}

TEST(SparsePipeline, AveAccurate) {
  for (std::uint64_t seed : {4ull, 5ull}) {
    const std::uint32_t n = 512;
    ChordOverlay chord{n, seed};
    const Graph links = overlay_graph(chord);
    const auto values = make_values(n, seed + 200);
    SparseGossipConfig cfg;
    cfg.push_sum.rounds_multiplier = 8.0;
    const auto r = sparse_drr_gossip_ave(chord, links, values, seed, {}, cfg);
    const double ave = std::accumulate(values.begin(), values.end(), 0.0) / n;
    EXPECT_TRUE(r.consensus) << seed;
    EXPECT_NEAR(r.value, ave, 1e-2 * ave);
  }
}

TEST(SparsePipeline, PerNodeDissemination) {
  const std::uint32_t n = 256;
  ChordOverlay chord{n, 9};
  const Graph links = overlay_graph(chord);
  const auto values = make_values(n, 500);
  const auto r = sparse_drr_gossip_max(chord, links, values, 9);
  const double mx = *std::max_element(values.begin(), values.end());
  for (std::uint32_t v = 0; v < n; ++v) ASSERT_DOUBLE_EQ(r.per_node[v], mx);
}

TEST(SparsePipeline, SurvivesModelLoss) {
  const std::uint32_t n = 512;
  ChordOverlay chord{n, 11};
  const Graph links = overlay_graph(chord);
  const auto values = make_values(n, 600);
  SparseGossipConfig cfg;
  cfg.gossip_max.gossip_multiplier = 6.0;
  cfg.gossip_max.sampling_multiplier = 4.0;
  const auto r = sparse_drr_gossip_max(chord, links, values, 11,
                                       sim::FaultSchedule{0.125, 0.0}, cfg);
  EXPECT_DOUBLE_EQ(r.value, *std::max_element(values.begin(), values.end()));
  EXPECT_TRUE(r.consensus);
}

TEST(SparsePipeline, Theorem14TimePolylog) {
  // Time O(log^2 n): across a 16x growth in n, rounds grow by at most
  // ~(log ratio)^2, nowhere near linearly.
  const std::uint32_t n1 = 256, n2 = 4096;
  ChordOverlay c1{n1, 7}, c2{n2, 7};
  const Graph g1 = overlay_graph(c1), g2 = overlay_graph(c2);
  const auto r1 = sparse_drr_gossip_max(c1, g1, make_values(n1, 1), 7);
  const auto r2 = sparse_drr_gossip_max(c2, g2, make_values(n2, 1), 7);
  const double lr = log2_clamped(n2) / log2_clamped(n1);  // 1.5
  EXPECT_LT(static_cast<double>(r2.rounds_total),
            3.0 * lr * lr * static_cast<double>(r1.rounds_total));
}

TEST(SparsePipeline, Theorem14MessagesNLogN) {
  // Messages O(n log n): normalised constant bounded across 16x growth.
  const std::uint32_t n1 = 256, n2 = 4096;
  ChordOverlay c1{n1, 8}, c2{n2, 8};
  const Graph g1 = overlay_graph(c1), g2 = overlay_graph(c2);
  const auto r1 = sparse_drr_gossip_max(c1, g1, make_values(n1, 2), 8);
  const auto r2 = sparse_drr_gossip_max(c2, g2, make_values(n2, 2), 8);
  const double k1 = static_cast<double>(r1.metrics.total().sent) / (n1 * log2_clamped(n1));
  const double k2 = static_cast<double>(r2.metrics.total().sent) / (n2 * log2_clamped(n2));
  EXPECT_LT(k2, 2.5 * k1);
}

TEST(SparsePipeline, BeatsUniformGossipOnMessages) {
  // The §4 headline: DRR-gossip needs a log n factor fewer messages than
  // uniform gossip on the same overlay, so the uniform/DRR message ratio
  // grows with n.
  std::vector<double> ratios;
  for (const std::uint32_t n : {512u, 2048u}) {
    ChordOverlay chord{n, 12};
    const Graph links = overlay_graph(chord);
    const auto values = make_values(n, 700);
    const auto drr = sparse_drr_gossip_max(chord, links, values, 12);
    const auto uni = chord_uniform_push_max(chord, values, 12);
    EXPECT_TRUE(drr.consensus) << n;
    EXPECT_TRUE(uni.consensus) << n;
    const auto drr_msgs = static_cast<double>(drr.metrics.total().sent);
    EXPECT_LT(drr_msgs * 2.0, static_cast<double>(uni.counters.sent)) << n;
    ratios.push_back(static_cast<double>(uni.counters.sent) / drr_msgs);
  }
  EXPECT_GT(ratios[1], 1.1 * ratios[0]) << ratios[0] << " -> " << ratios[1];
}

TEST(SparsePipeline, Deterministic) {
  const std::uint32_t n = 256;
  ChordOverlay chord{n, 13};
  const Graph links = overlay_graph(chord);
  const auto values = make_values(n, 800);
  const auto a = sparse_drr_gossip_ave(chord, links, values, 13);
  const auto b = sparse_drr_gossip_ave(chord, links, values, 13);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  EXPECT_EQ(a.metrics.total().sent, b.metrics.total().sent);
}

TEST(SparsePipeline, RejectsMismatchedGraph) {
  ChordOverlay chord{64, 1};
  const Graph wrong = overlay_graph(ChordOverlay{128, 1});
  std::vector<double> values(128, 1.0);
  EXPECT_THROW((void)sparse_drr_gossip_max(chord, wrong, values, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The substrate entry points: Local-DRR on the scenario topology's CSR
// adjacency, Phase III routed on the substrate.

TEST(SparsePipeline, SubstrateEntryComputesOnGridAndRegular) {
  for (const sim::TopologyKind kind :
       {sim::TopologyKind::kGrid2d, sim::TopologyKind::kRandomRegular}) {
    sim::TopologySpec spec{kind};
    spec.degree = 8;
    const sim::Scenario scenario{sim::make_topology(spec, 512, 3), {}};
    const auto values = make_values(512, 900);
    const auto mx = sparse_drr_gossip_max(values, 21, scenario);
    EXPECT_DOUBLE_EQ(mx.value, *std::max_element(values.begin(), values.end()))
        << sim::to_string(kind);
    EXPECT_TRUE(mx.consensus) << sim::to_string(kind);
    const auto av = sparse_drr_gossip_ave(values, 21, scenario);
    const double ave = std::accumulate(values.begin(), values.end(), 0.0) / 512;
    EXPECT_TRUE(av.consensus) << sim::to_string(kind);
    EXPECT_NEAR(av.value, ave, 0.03 * ave) << sim::to_string(kind);
  }
}

TEST(SparsePipeline, SubstrateEntryRejectsCompleteTopology) {
  std::vector<double> values(64, 1.0);
  EXPECT_THROW((void)sparse_drr_gossip_max(values, 1, sim::Scenario{}),
               std::invalid_argument);
}

TEST(SparsePipeline, ChordEntryRejectsExplicitScenarioTopology) {
  ChordOverlay chord{64, 1};
  const Graph links = overlay_graph(chord);
  std::vector<double> values(64, 1.0);
  const sim::Scenario scenario{
      sim::make_topology({sim::TopologyKind::kGrid2d}, 64, 1), {}};
  EXPECT_THROW((void)sparse_drr_gossip_max(chord, links, values, 1, scenario),
               std::invalid_argument);
}

}  // namespace
}  // namespace drrg
