// Golden determinism tests: the bit-identity contract of the flat-core
// engine rewrite.
//
// The checksums below were generated from the PRE-rewrite tree (generic
// Network-only hot path, per-round queue allocation, eager per-node RNGs)
// and must keep matching forever: the pooled-queue engine, the flat
// fault-free executors and the CSR topology view are required to be
// *observationally invisible*.  Two families:
//
//   * kPreRewriteGoldens -- bit-identical to the pre-rewrite binary (all
//     complete-topology runs, plus every faulty run; the loss/crash-only
//     ones now run on the flat executors, the churn one on the generic
//     engine path);
//   * kExplicitTopologyGoldens -- pinned at the introduction of the
//     Phase III member relay + diameter-scaled budget (that feature
//     deliberately changed explicit-substrate traffic); they guard the
//     behavior from here on.
//
// A third family (sparse_engine_goldens) was pinned when chord-drr moved
// off its bespoke RoutedTransport onto the shared engine and the sparse
// pipeline opened to explicit substrates: hop-by-hop expansion changed
// that family's traffic by design, and these checksums freeze it.
//
// Every sweep is additionally checked at --threads 1/4/8: any divergence
// is a scheduling leak.

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aggregate/sparse.hpp"
#include "api/registry.hpp"
#include "api/report_hash.hpp"
#include "chord/chord.hpp"
#include "drr/drr.hpp"
#include "drr/local_drr.hpp"
#include "rootgossip/gossip_ave.hpp"
#include "rootgossip/gossip_max.hpp"
#include "rootgossip/ordered_key.hpp"
#include "sim/topology.hpp"
#include "support/parallel.hpp"
#include "trees/broadcast.hpp"
#include "trees/convergecast.hpp"

namespace drrg {
namespace {

struct GoldenCase {
  const char* name;
  const char* algo;
  std::uint64_t expected;
  api::RunSpec spec;
};

api::RunSpec spec_of(std::uint32_t n, api::Aggregate agg, std::uint64_t seed) {
  api::RunSpec s;
  s.n = n;
  s.aggregate = agg;
  s.seed = seed;
  return s;
}

/// The pre-rewrite pins: complete topology and/or faulty schedules.
std::vector<GoldenCase> pre_rewrite_goldens() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"drr_ave_complete", "drr", 0x3f2eb88241b9e20fULL,
                 spec_of(256, api::Aggregate::kAve, 77)};
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_count_faulty", "drr", 0xb942627d51402357ULL,
                 spec_of(256, api::Aggregate::kCount, 42)};
    c.spec.faults = sim::FaultSchedule{0.05, 0.2, {{8, 0.05}}};
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_median_crash", "drr", 0xbc6c9034675e67b9ULL,
                 spec_of(128, api::Aggregate::kMedian, 9)};
    c.spec.faults.crash_fraction = 0.3;
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_rank_complete", "drr", 0x5f79acccb0b08cceULL,
                 spec_of(256, api::Aggregate::kRank, 11)};
    c.spec.rank_threshold = 50.0;
    cases.push_back(c);
  }
  {
    GoldenCase c{"uniform_ave_lossy", "uniform", 0xd46d45a0b23c1c08ULL,
                 spec_of(256, api::Aggregate::kAve, 3)};
    c.spec.faults.loss_prob = 0.05;
    cases.push_back(c);
  }
  {
    GoldenCase c{"efficient_max", "efficient", 0x15ba9600b576e794ULL,
                 spec_of(256, api::Aggregate::kMax, 13)};
    cases.push_back(c);
  }
  {
    GoldenCase c{"pairwise_ave", "pairwise", 0x153b26bb62341637ULL,
                 spec_of(256, api::Aggregate::kAve, 17)};
    cases.push_back(c);
  }
  {
    GoldenCase c{"extrema_count_lossy", "extrema", 0x2b89a66114d3e330ULL,
                 spec_of(256, api::Aggregate::kCount, 19)};
    c.spec.faults.loss_prob = 0.1;
    cases.push_back(c);
  }
  {
    GoldenCase c{"chord_uniform_ave_crash", "chord-uniform", 0x4fd1c788c8ac7a21ULL,
                 spec_of(256, api::Aggregate::kAve, 23)};
    c.spec.faults.crash_fraction = 0.1;
    cases.push_back(c);
  }
  return cases;
}

/// Explicit-substrate pins (member relay + diameter budget era).
std::vector<GoldenCase> explicit_topology_goldens() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"drr_max_chord_ring", "drr", 0x31ede523ddd5adb2ULL,
                 spec_of(256, api::Aggregate::kMax, 7)};
    c.spec.topology.kind = sim::TopologyKind::kChordRing;
    c.spec.faults.loss_prob = 0.1;
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_leader_regular", "drr", 0x0f07a96dcd35f2b3ULL,
                 spec_of(256, api::Aggregate::kLeader, 5)};
    c.spec.topology.kind = sim::TopologyKind::kRandomRegular;
    c.spec.topology.degree = 8;
    cases.push_back(c);
  }
  return cases;
}

/// Sparse-pipeline pins, recorded at the engine port of chord-drr (the
/// RoutedTransport deletion deliberately changed this family's traffic;
/// these pin the hop-by-hop behavior from here on, thread-swept like all
/// the others).
std::vector<GoldenCase> sparse_engine_goldens() {
  std::vector<GoldenCase> cases;
  {
    GoldenCase c{"chord_drr_max_complete", "chord-drr", 0x3b9ad6d2d27bfd9aULL,
                 spec_of(256, api::Aggregate::kMax, 7)};
    cases.push_back(c);
  }
  {
    GoldenCase c{"chord_drr_ave_full_schedule", "chord-drr", 0x92ecd35dd494f817ULL,
                 spec_of(256, api::Aggregate::kAve, 23)};
    c.spec.faults = sim::FaultSchedule{0.05, 0.1, {{8, 0.05}}};
    cases.push_back(c);
  }
  {
    // Large-n pin for the flattened routed hot path (finger-table binary
    // search, cached owners, crash-free dispatch): recorded just before
    // that rewrite, so it freezes the pre-flattening traffic at a size
    // where every fast-path branch is exercised.
    GoldenCase c{"chord_drr_ave_full_schedule_4096", "chord-drr",
                 0xd54322ee964b463fULL, spec_of(4096, api::Aggregate::kAve, 23)};
    c.spec.faults = sim::FaultSchedule{0.05, 0.1, {{8, 0.05}}};
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_sparse_grid_ave", "drr", 0x8954db044cb19e27ULL,
                 spec_of(240, api::Aggregate::kAve, 31)};
    c.spec.topology.kind = sim::TopologyKind::kGrid2d;
    c.spec.pipeline = api::Pipeline::kSparse;
    cases.push_back(c);
  }
  {
    GoldenCase c{"drr_sparse_regular_max_churn", "drr", 0x6817253a138bafbfULL,
                 spec_of(256, api::Aggregate::kMax, 5)};
    c.spec.topology.kind = sim::TopologyKind::kRandomRegular;
    c.spec.topology.degree = 8;
    c.spec.pipeline = api::Pipeline::kSparse;
    c.spec.faults.churn = {{20, 0.1}};
    cases.push_back(c);
  }
  return cases;
}

void check_case(const GoldenCase& c) {
  const auto t1 = api::run_trials(c.algo, c.spec, 3, 1);
  const std::uint64_t h1 = api::sweep_checksum(t1);
  EXPECT_EQ(h1, c.expected) << c.name << ": golden drift (0x" << std::hex << h1 << ")";
  for (const unsigned threads : {4u, 8u}) {
    const auto ht = api::sweep_checksum(api::run_trials(c.algo, c.spec, 3, threads));
    EXPECT_EQ(ht, h1) << c.name << ": thread-count divergence at " << threads;
  }
}

TEST(GoldenDeterminism, PreRewriteSweepsAreBitIdentical) {
  for (const GoldenCase& c : pre_rewrite_goldens()) check_case(c);
}

TEST(GoldenDeterminism, ExplicitTopologySweepsAreBitIdentical) {
  for (const GoldenCase& c : explicit_topology_goldens()) check_case(c);
}

TEST(GoldenDeterminism, SparseEngineSweepsAreBitIdentical) {
  for (const GoldenCase& c : sparse_engine_goldens()) check_case(c);
}

TEST(GoldenDeterminism, GridSweepIsThreadCountInvariant) {
  api::RunSpec spec = spec_of(240, api::Aggregate::kAve, 31);
  spec.topology.kind = sim::TopologyKind::kGrid2d;
  const std::uint64_t h1 = api::sweep_checksum(api::run_trials("drr", spec, 3, 1));
  for (const unsigned threads : {4u, 8u})
    EXPECT_EQ(api::sweep_checksum(api::run_trials("drr", spec, 3, threads)), h1);
}

// The flat executors (run_drr_flat, run_local_drr_flat,
// run_convergecast_flat, run_broadcast_flat and Phase III's
// run_flat_root_gossip) must agree with the generic engine path field for
// field, fault-free and under the paper's fault model alike.  A churn event far past every run's horizon
// forces the engine path (the schedule leaves paper_model()) without
// changing anything observable: it never fires, and its victims are drawn
// after the round-0 crash set, which stays the same.
sim::FaultSchedule engine_forcing(sim::FaultSchedule faults) {
  faults.churn.push_back({1000000, 0.5});
  return faults;
}

constexpr double kLosses[] = {0.0, 0.1, 0.3};
constexpr double kCrashes[] = {0.0, 0.05, 0.3};
constexpr sim::TopologyKind kKinds[] = {
    sim::TopologyKind::kComplete, sim::TopologyKind::kGrid2d,
    sim::TopologyKind::kChordRing, sim::TopologyKind::kRandomRegular};

std::string fault_label(double loss, double crash) {
  return "loss " + std::to_string(loss) + " crash " + std::to_string(crash);
}

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  out.reserve(xs.size());
  for (const double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

void expect_same_counters(const sim::Counters& a, const sim::Counters& b,
                          const std::string& what) {
  EXPECT_EQ(a.sent, b.sent) << what;
  EXPECT_EQ(a.delivered, b.delivered) << what;
  EXPECT_EQ(a.lost, b.lost) << what;
  EXPECT_EQ(a.bits, b.bits) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
}

void expect_same_forest(const Forest& a, const Forest& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (NodeId v = 0; v < a.size(); ++v) {
    ASSERT_EQ(a.is_member(v), b.is_member(v)) << what << " node " << v;
    ASSERT_EQ(a.parent(v), b.parent(v)) << what << " node " << v;
  }
}

// Field by field, not report_checksum: extrema's report stores its
// participation mask empty without churn and all-true with it, so the
// mask is compared only where the pipeline derives it from the forest.
void expect_same_report(const api::RunReport& a, const api::RunReport& b,
                        const std::string& what, bool compare_participating) {
  ASSERT_TRUE(a.ok()) << what << ": " << a.error;
  ASSERT_TRUE(b.ok()) << what << ": " << b.error;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value), std::bit_cast<std::uint64_t>(b.value))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.truth), std::bit_cast<std::uint64_t>(b.truth))
      << what;
  EXPECT_EQ(a.consensus, b.consensus) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  expect_same_counters(a.cost, b.cost, what + " cost");
  expect_same_counters(a.phases.drr, b.phases.drr, what + " drr");
  expect_same_counters(a.phases.convergecast, b.phases.convergecast, what + " convergecast");
  expect_same_counters(a.phases.root_broadcast, b.phases.root_broadcast,
                       what + " root broadcast");
  expect_same_counters(a.phases.gossip, b.phases.gossip, what + " gossip");
  expect_same_counters(a.phases.spread, b.phases.spread, what + " spread");
  expect_same_counters(a.phases.value_broadcast, b.phases.value_broadcast,
                       what + " value broadcast");
  EXPECT_EQ(a.forest.num_trees, b.forest.num_trees) << what;
  EXPECT_EQ(a.forest.max_tree_size, b.forest.max_tree_size) << what;
  EXPECT_EQ(a.forest.max_tree_height, b.forest.max_tree_height) << what;
  EXPECT_EQ(a.forest.largest_tree_root, b.forest.largest_tree_root) << what;
  if (compare_participating) {
    EXPECT_EQ(a.participating, b.participating) << what;
  }
}

// Whole pipelines through the facade: dense DRR-gossip on every
// substrate, the sparse pipeline on the explicit ones, chord-drr and
// extrema (whose Phase I is run_drr), each under loss x crash.
TEST(GoldenDeterminism, FlatExecutorsMatchEnginePath) {
  struct Row {
    const char* algo;
    api::Pipeline pipeline;
    sim::TopologyKind kind;
    api::Aggregate agg;
  };
  std::vector<Row> rows;
  for (const sim::TopologyKind kind : kKinds) {
    for (const api::Aggregate agg : {api::Aggregate::kAve, api::Aggregate::kMax}) {
      rows.push_back({"drr", api::Pipeline::kDense, kind, agg});
      if (kind != sim::TopologyKind::kComplete)
        rows.push_back({"drr", api::Pipeline::kSparse, kind, agg});
    }
    for (const api::Aggregate agg : {api::Aggregate::kCount, api::Aggregate::kSum})
      rows.push_back({"extrema", api::Pipeline::kDense, kind, agg});
  }
  for (const api::Aggregate agg : {api::Aggregate::kAve, api::Aggregate::kMax})
    rows.push_back({"chord-drr", api::Pipeline::kDense, sim::TopologyKind::kComplete, agg});

  for (const Row& row : rows) {
    for (const double loss : kLosses) {
      for (const double crash : kCrashes) {
        api::RunSpec flat = spec_of(256, row.agg, 97);
        flat.topology.kind = row.kind;
        flat.pipeline = row.pipeline;
        flat.faults = sim::FaultSchedule{loss, crash};
        api::RunSpec engine = flat;
        engine.faults = engine_forcing(flat.faults);
        const std::string what = std::string{row.algo} + " " +
                                 std::string{api::to_string(row.pipeline)} + " " +
                                 std::string{sim::to_string(row.kind)} + " " +
                                 std::string{api::to_string(row.agg)} + " " +
                                 fault_label(loss, crash);
        expect_same_report(api::run(row.algo, flat), api::run(row.algo, engine), what,
                           /*compare_participating=*/std::string_view{row.algo} != "extrema");
      }
    }
  }
}

// The sparse pipeline's fault-free Phase III runs in event time: each G~
// call resolves its route when it is made and is absorbed in the round
// the engine would deliver its last hop.  It must match the hop-by-hop
// engine path report field for field, and per node: chord-drr at n =
// 4096, where Max's inquiry replies are routed back to their origins, and
// the sparse pipeline on a grid and on a torus (even sides: antipode
// ties) and an odd torus.
TEST(GoldenDeterminism, EventTimePhaseThreeMatchesEnginePath) {
  struct Row {
    const char* algo;
    sim::TopologyKind kind;
    bool torus;
    std::uint32_t n;
  };
  const Row rows[] = {{"chord-drr", sim::TopologyKind::kComplete, false, 4096},
                      {"drr", sim::TopologyKind::kGrid2d, false, 1024},
                      {"drr", sim::TopologyKind::kGrid2d, true, 1024},
                      {"drr", sim::TopologyKind::kGrid2d, true, 1023}};
  for (const Row& row : rows) {
    for (const api::Aggregate agg : {api::Aggregate::kAve, api::Aggregate::kMax}) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
        api::RunSpec flat = spec_of(row.n, agg, seed);
        flat.topology.kind = row.kind;
        flat.topology.torus = row.torus;
        if (row.kind != sim::TopologyKind::kComplete) flat.pipeline = api::Pipeline::kSparse;
        api::RunSpec engine = flat;
        engine.faults = engine_forcing(flat.faults);
        const std::string what = std::string{row.algo} + " " +
                                 std::string{sim::to_string(row.kind)} +
                                 (row.torus ? " torus " : " ") + std::to_string(row.n) + " " +
                                 std::string{api::to_string(agg)} + " seed " +
                                 std::to_string(seed);
        expect_same_report(api::run(row.algo, flat), api::run(row.algo, engine), what,
                           /*compare_participating=*/true);
      }
    }
  }
}

void expect_same_outcome(const AggregateOutcome& a, const AggregateOutcome& b,
                         const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value), std::bit_cast<std::uint64_t>(b.value))
      << what;
  EXPECT_EQ(bit_patterns(a.per_node), bit_patterns(b.per_node)) << what;
  EXPECT_EQ(a.participating, b.participating) << what;
  EXPECT_EQ(a.consensus, b.consensus) << what;
  EXPECT_EQ(a.rounds_total, b.rounds_total) << what;
  expect_same_counters(a.metrics.gossip, b.metrics.gossip, what + " gossip");
  expect_same_counters(a.metrics.spread, b.metrics.spread, what + " spread");
  expect_same_counters(a.metrics.value_broadcast, b.metrics.value_broadcast,
                       what + " value broadcast");
}

// Per-node values, with budgets too short to converge (one gossip round,
// three sampling rounds): the roots end on different keys, and the key an
// inquiry reads depends on whether a reply landed at its root earlier in
// the same round.  Event time must absorb replies in the engine's delivery
// order, or some root ends on a different key.
TEST(GoldenDeterminism, EventTimeRepliesKeepTheEngineOrder) {
  SparseGossipConfig short_gossip;
  short_gossip.gossip_max.gossip_multiplier = 0.1;
  short_gossip.gossip_max.sampling_multiplier = 0.25;
  const std::uint32_t n = 4096;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const ChordOverlay chord{n, seed};
    const Graph links = overlay_graph(chord);
    std::vector<double> values(n);
    Rng vr{seed};
    for (double& x : values) x = vr.next_uniform(-50, 50);
    const sim::Scenario flat{};
    const sim::Scenario engine{engine_forcing({})};
    const std::string what = "chord n 4096 seed " + std::to_string(seed);
    expect_same_outcome(sparse_drr_gossip_max(chord, links, values, seed, flat, short_gossip),
                        sparse_drr_gossip_max(chord, links, values, seed, engine, short_gossip),
                        "max " + what);
    expect_same_outcome(sparse_drr_gossip_ave(chord, links, values, seed, flat, short_gossip),
                        sparse_drr_gossip_ave(chord, links, values, seed, engine, short_gossip),
                        "ave " + what);
  }
}

// Phase III's flat executor, called directly: gossip-max, data-spread
// and push-sum (Ave and the one-hot Sum/Count denominator) on the flat
// path and on the engine path must agree bit for bit -- keys, the
// post-gossip snapshot, (num, den) and every counter -- under loss x
// crash on every substrate, with and without the member relay, at two
// round budgets and two stream tags.  The forest is Phase I's under the
// same schedule (crashed nodes are non-members), and the flat and
// engine Phase I must agree on it too.
TEST(GoldenDeterminism, FlatRootGossipMatchesEnginePath) {
  const std::uint32_t n = 256;
  const RngFactory rngs{31};
  for (const sim::TopologyKind kind : kKinds) {
    const sim::Topology topology = sim::make_topology({kind}, n, 5);
    for (const double loss : kLosses) {
      for (const double crash : kCrashes) {
        const sim::Scenario flat{topology, sim::FaultSchedule{loss, crash}};
        const sim::Scenario engine{topology, engine_forcing(flat.faults)};
        const std::string where =
            std::string{sim::to_string(kind)} + " " + fault_label(loss, crash);
        const DrrResult drr = run_drr(n, rngs, flat);
        const DrrResult drr_engine = run_drr(n, rngs, engine);
        expect_same_forest(drr.forest, drr_engine.forest, "drr " + where);
        EXPECT_EQ(bit_patterns(drr.ranks), bit_patterns(drr_engine.ranks)) << where;
        expect_same_counters(drr.counters, drr_engine.counters, "drr " + where);
        const Forest& forest = drr.forest;

        Rng vr{17};
        std::vector<std::uint64_t> keys(n, kKeyBottom);
        std::vector<double> num0(n, 0.0), den_ave(n, 0.0), den_one_hot(n, 0.0);
        for (const NodeId r : forest.roots()) {
          keys[r] = encode_ordered(vr.next_uniform(-50, 50));
          num0[r] = vr.next_uniform(-50, 50);
          den_ave[r] = static_cast<double>(forest.tree_size(r));
        }
        den_one_hot[forest.largest_tree_root()] = 1.0;

        for (const bool relay : {true, false}) {
          for (const double scale : {1.0, 2.5}) {
            for (const std::uint64_t tag : {0ULL, 9ULL}) {
              const std::string what = where + " relay " + std::to_string(relay) +
                                       " scale " + std::to_string(scale) + " tag " +
                                       std::to_string(tag);
              GossipMaxConfig gm;
              gm.member_relay = relay;
              gm.round_budget_scale = scale;
              gm.stream_tag = tag;
              const GossipMaxResult ga = run_gossip_max(forest, keys, rngs, flat, gm);
              const GossipMaxResult gb = run_gossip_max(forest, keys, rngs, engine, gm);
              EXPECT_EQ(ga.key, gb.key) << what;
              EXPECT_EQ(ga.key_after_gossip, gb.key_after_gossip) << what;
              EXPECT_EQ(ga.rounds, gb.rounds) << what;
              expect_same_counters(ga.counters, gb.counters, "gossip-max " + what);

              const NodeId source = forest.largest_tree_root();
              const GossipMaxResult sa = run_data_spread(forest, source, 42, rngs, flat, gm);
              const GossipMaxResult sb = run_data_spread(forest, source, 42, rngs, engine, gm);
              EXPECT_EQ(sa.key, sb.key) << what;
              EXPECT_EQ(sa.key_after_gossip, sb.key_after_gossip) << what;
              expect_same_counters(sa.counters, sb.counters, "data-spread " + what);

              PushSumConfig ps;
              ps.member_relay = relay;
              ps.round_budget_scale = scale;
              ps.stream_tag = tag;
              for (const std::vector<double>* den0 : {&den_ave, &den_one_hot}) {
                const PushSumResult pa = run_root_push_sum(forest, num0, *den0, rngs, flat, ps);
                const PushSumResult pb =
                    run_root_push_sum(forest, num0, *den0, rngs, engine, ps);
                EXPECT_EQ(bit_patterns(pa.num), bit_patterns(pb.num)) << what;
                EXPECT_EQ(bit_patterns(pa.den), bit_patterns(pb.den)) << what;
                EXPECT_EQ(bit_patterns(pa.estimate), bit_patterns(pb.estimate)) << what;
                EXPECT_EQ(pa.rounds, pb.rounds) << what;
                expect_same_counters(pa.counters, pb.counters, "push-sum " + what);
              }
            }
          }
        }
      }
    }
  }
}

// Edge branch: under heavy loss a connect retried connect_attempt_cap
// times gives up and its node becomes a root by exhaustion.
TEST(GoldenDeterminism, FlatDrrMatchesEngineOnConnectExhaustion) {
  const std::uint32_t n = 512;
  const RngFactory rngs{7};
  for (const sim::TopologyKind kind : {sim::TopologyKind::kComplete, sim::TopologyKind::kGrid2d}) {
    const sim::Topology topology = sim::make_topology({kind}, n, 3);
    for (const double crash : kCrashes) {
      const sim::Scenario flat{topology, sim::FaultSchedule{0.6, crash}};
      const sim::Scenario engine{topology, engine_forcing(flat.faults)};
      const std::string what = std::string{sim::to_string(kind)} + " " + fault_label(0.6, crash);
      DrrConfig capped;
      capped.connect_attempt_cap = 2;
      const DrrResult a = run_drr(n, rngs, flat, capped);
      const DrrResult b = run_drr(n, rngs, engine, capped);
      expect_same_forest(a.forest, b.forest, what);
      EXPECT_EQ(bit_patterns(a.ranks), bit_patterns(b.ranks)) << what;
      expect_same_counters(a.counters, b.counters, what);
      EXPECT_EQ(a.total_probes, b.total_probes) << what;
      EXPECT_EQ(a.rounds, b.rounds) << what;
      // The cap bites: more roots than the default cap leaves.
      EXPECT_GT(a.forest.num_trees(), run_drr(n, rngs, flat).forest.num_trees()) << what;
    }
  }
}

// Local-DRR (the sparse pipeline's Phase I), called directly on the Chord
// overlay's link graph and on the grid, chord-ring and random-regular
// graphs: under loss x crash, and at loss 0.6, where connects run out of
// attempts, with one to three exchange rounds and two connect caps.
TEST(GoldenDeterminism, FlatLocalDrrMatchesEnginePath) {
  const std::uint32_t n = 256;
  const RngFactory rngs{61};
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("chord-overlay", overlay_graph(ChordOverlay{n, 11}));
  for (const sim::TopologyKind kind : {sim::TopologyKind::kGrid2d, sim::TopologyKind::kChordRing,
                                       sim::TopologyKind::kRandomRegular}) {
    graphs.emplace_back(std::string{sim::to_string(kind)},
                        *sim::make_topology({kind}, n, 5).graph());
  }
  std::vector<sim::FaultSchedule> schedules;
  for (const double loss : {kLosses[0], kLosses[1], kLosses[2], 0.6}) {
    for (const double crash : kCrashes) schedules.emplace_back(loss, crash);
  }
  for (const auto& [name, g] : graphs) {
    for (const sim::FaultSchedule& faults : schedules) {
      const sim::Scenario flat{sim::Topology::of_graph(g), faults};
      const sim::Scenario engine{flat.topology, engine_forcing(faults)};
      for (const std::uint32_t exchange : {1u, 2u, 3u}) {
        std::size_t roots_at_cap[2] = {0, 0};
        for (const std::uint32_t cap : {2u, 8u}) {
          const std::string what = name + " " + fault_label(faults.loss_prob,
                                                            faults.crash_fraction) +
                                   " exchange " + std::to_string(exchange) + " cap " +
                                   std::to_string(cap);
          LocalDrrConfig config;
          config.exchange_rounds = exchange;
          config.connect_attempt_cap = cap;
          const LocalDrrResult a = run_local_drr(g, rngs, flat, config);
          const LocalDrrResult b = run_local_drr(g, rngs, engine, config);
          expect_same_forest(a.forest, b.forest, what);
          EXPECT_EQ(bit_patterns(a.ranks), bit_patterns(b.ranks)) << what;
          expect_same_counters(a.counters, b.counters, what);
          EXPECT_EQ(a.rounds, b.rounds) << what;
          roots_at_cap[cap == 2u ? 0 : 1] = a.forest.num_trees();
        }
        if (faults.loss_prob == 0.6) {
          EXPECT_GT(roots_at_cap[0], roots_at_cap[1])
              << name << " " << fault_label(0.6, faults.crash_fraction) << " exchange "
              << exchange << ": cap 2 should leave more roots than cap 8";
        }
      }
    }
  }
}

void expect_same_phase2(const Forest& forest, const RngFactory& rngs,
                        const sim::Scenario& flat, const std::string& where) {
  const sim::Scenario engine{flat.topology, engine_forcing(flat.faults)};
  const std::uint32_t n = forest.size();
  std::vector<double> values(n);
  Rng vr{23};
  for (double& x : values) x = vr.next_uniform(-10, 10);
  for (const ConvergecastOp op :
       {ConvergecastOp::kMax, ConvergecastOp::kMin, ConvergecastOp::kSum}) {
    const std::string what = where + " op " + std::to_string(static_cast<int>(op));
    const ConvergecastResult a = run_convergecast(forest, values, op, rngs, flat);
    const ConvergecastResult b = run_convergecast(forest, values, op, rngs, engine);
    EXPECT_EQ(bit_patterns(a.aggregate), bit_patterns(b.aggregate)) << what;
    EXPECT_EQ(bit_patterns(a.weight), bit_patterns(b.weight)) << what;
    EXPECT_EQ(a.rounds, b.rounds) << what;
    EXPECT_EQ(a.complete, b.complete) << what;
    expect_same_counters(a.counters, b.counters, "convergecast " + what);
  }
  for (const bool simultaneous : {false, true}) {
    const std::string what = where + " simultaneous " + std::to_string(simultaneous);
    BroadcastConfig bc;
    bc.simultaneous_children = simultaneous;
    const BroadcastResult a = run_broadcast(forest, values, rngs, flat, bc);
    const BroadcastResult b = run_broadcast(forest, values, rngs, engine, bc);
    EXPECT_EQ(bit_patterns(a.received), bit_patterns(b.received)) << what;
    EXPECT_EQ(a.informed, b.informed) << what;
    EXPECT_EQ(a.rounds, b.rounds) << what;
    EXPECT_EQ(a.complete, b.complete) << what;
    expect_same_counters(a.counters, b.counters, "broadcast " + what);
  }
}

// Edge branches of Phase II, called directly: convergecast (every op) and
// broadcast with simultaneous_children on and off, on Phase I's forest
// under the same schedule.
TEST(GoldenDeterminism, FlatTreeProtocolsMatchEnginePath) {
  const std::uint32_t n = 256;
  const RngFactory rngs{41};
  for (const sim::TopologyKind kind : kKinds) {
    const sim::Topology topology = sim::make_topology({kind}, n, 5);
    for (const double loss : kLosses) {
      for (const double crash : kCrashes) {
        const sim::Scenario flat{topology, sim::FaultSchedule{loss, crash}};
        const DrrResult drr = run_drr(n, rngs, flat);
        expect_same_phase2(drr.forest, rngs, flat,
                           std::string{sim::to_string(kind)} + " " + fault_label(loss, crash));
      }
    }
  }
}

void expect_same_phase3(const Forest& forest, const RngFactory& rngs,
                        const sim::Scenario& flat, const std::string& what) {
  const sim::Scenario engine{flat.topology, engine_forcing(flat.faults)};
  const std::uint32_t n = forest.size();
  std::vector<std::uint64_t> keys(n, kKeyBottom);
  std::vector<double> num0(n, 0.0), den0(n, 0.0);
  Rng vr{19};
  for (const NodeId r : forest.roots()) {
    keys[r] = encode_ordered(vr.next_uniform(-50, 50));
    num0[r] = vr.next_uniform(-50, 50);
    den0[r] = static_cast<double>(forest.tree_size(r));
  }
  const GossipMaxResult ga = run_gossip_max(forest, keys, rngs, flat);
  const GossipMaxResult gb = run_gossip_max(forest, keys, rngs, engine);
  EXPECT_EQ(ga.key, gb.key) << what;
  EXPECT_EQ(ga.key_after_gossip, gb.key_after_gossip) << what;
  expect_same_counters(ga.counters, gb.counters, "gossip-max " + what);
  const PushSumResult pa = run_root_push_sum(forest, num0, den0, rngs, flat);
  const PushSumResult pb = run_root_push_sum(forest, num0, den0, rngs, engine);
  EXPECT_EQ(bit_patterns(pa.num), bit_patterns(pb.num)) << what;
  EXPECT_EQ(bit_patterns(pa.den), bit_patterns(pb.den)) << what;
  expect_same_counters(pa.counters, pb.counters, "push-sum " + what);
}

// Edge branches: the crash set comes from the schedule, not from forest
// membership.  A forest built fault-free and run under crash 0.3 keeps
// its crashed members -- roots among them -- in the trees: they never
// call, and every call to them is lost without a coin.  Conversely, a
// forest built under crash 0.3 and run under loss alone has live
// non-members, where calls are delivered and die unacknowledged.
TEST(GoldenDeterminism, FlatExecutorsMatchEngineWhenForestAndCrashSetDiffer) {
  const std::uint32_t n = 256;
  const RngFactory rngs{53};
  for (const sim::TopologyKind kind : {sim::TopologyKind::kComplete, sim::TopologyKind::kGrid2d}) {
    const sim::Topology topology = sim::make_topology({kind}, n, 5);
    const Forest whole = run_drr(n, rngs, sim::Scenario{topology, {}}).forest;
    const Forest survivors =
        run_drr(n, rngs, sim::Scenario{topology, sim::FaultSchedule{0.0, 0.3}}).forest;
    const std::vector<bool> crashed = sim::crash_mask(n, rngs, 0.3);
    std::size_t crashed_roots = 0;
    for (const NodeId r : whole.roots()) crashed_roots += crashed[r] ? 1 : 0;
    ASSERT_GT(crashed_roots, 0U);
    for (const double loss : kLosses) {
      const sim::Scenario crashing{topology, sim::FaultSchedule{loss, 0.3}};
      const std::string what = std::string{sim::to_string(kind)} + " " + fault_label(loss, 0.3);
      expect_same_phase2(whole, rngs, crashing, "crashed members " + what);
      expect_same_phase3(whole, rngs, crashing, "crashed members " + what);
      if (loss > 0.0) {
        const sim::Scenario lossy{topology, sim::FaultSchedule{loss, 0.0}};
        const std::string live = "live non-members " + std::string{sim::to_string(kind)} +
                                 " " + fault_label(loss, 0.0);
        expect_same_phase2(survivors, rngs, lossy, live);
        expect_same_phase3(survivors, rngs, lossy, live);
      }
    }
  }
}

// CSR flat-view sampling must agree with a naive neighbor-span walk over
// every explicit topology family.
TEST(GoldenDeterminism, CsrSamplingMatchesNaiveNeighborSampling) {
  const std::uint32_t n = 192;
  for (const char* name : {"chord-ring", "random-regular", "grid", "torus"}) {
    const auto spec = sim::topology_from_name(name);
    ASSERT_TRUE(spec.has_value()) << name;
    const sim::Topology t = sim::make_topology(*spec, n, 13);
    ASSERT_NE(t.graph(), nullptr) << name;
    Rng csr_rng{99};
    Rng naive_rng{99};
    for (int i = 0; i < 4000; ++i) {
      const NodeId caller = static_cast<NodeId>(i % n);
      const NodeId fast = t.sample_peer(caller, n, csr_rng);
      const auto nbrs = t.graph()->neighbors(caller);
      const NodeId naive =
          nbrs.empty() ? caller : nbrs[naive_rng.next_below(nbrs.size())];
      ASSERT_EQ(fast, naive) << name << " caller " << caller;
      ASSERT_EQ(t.degree(caller), nbrs.size()) << name;
    }
  }
}

// Satellite regression: diameter-heavy substrates now converge (member
// relay + diameter-scaled Phase III budget); the knob disables cleanly.
TEST(DiameterBudget, GridAndTorusReachConsensus) {
  for (const bool torus : {false, true}) {
    api::RunSpec spec = spec_of(256, api::Aggregate::kAve, 42);
    spec.topology.kind = sim::TopologyKind::kGrid2d;
    spec.topology.torus = torus;
    const api::RunReport r = api::run("drr", spec);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.consensus) << (torus ? "torus" : "grid");
    EXPECT_LT(r.rel_error(), 0.1) << (torus ? "torus" : "grid");
  }
}

TEST(DiameterBudget, MultiplierScalesRounds) {
  api::RunSpec spec = spec_of(256, api::Aggregate::kAve, 42);
  spec.topology.kind = sim::TopologyKind::kGrid2d;
  DrrGossipConfig off;
  off.phase3_diameter_multiplier = 0.0;
  spec.config = off;
  const api::RunReport base = api::run("drr", spec);
  DrrGossipConfig big;
  big.phase3_diameter_multiplier = 2.0;
  spec.config = big;
  const api::RunReport scaled = api::run("drr", spec);
  ASSERT_TRUE(base.ok() && scaled.ok());
  EXPECT_GT(scaled.rounds, base.rounds);
  // The complete topology has diameter 1: the knob must be a no-op there.
  api::RunSpec complete_spec = spec_of(256, api::Aggregate::kAve, 42);
  const std::uint64_t plain = api::report_checksum(api::run("drr", complete_spec));
  complete_spec.config = big;
  EXPECT_EQ(api::report_checksum(api::run("drr", complete_spec)), plain);
}

// Satellite regression: parallel_map keeps first-error-by-index semantics
// with its per-worker (not per-task) error slots.
TEST(ParallelMap, FirstErrorByIndexIsRethrown) {
  try {
    (void)parallel_map(64, 8, [](std::size_t i) -> int {
      if (i == 7 || i == 23 || i == 51) throw std::runtime_error(std::to_string(i));
      return static_cast<int>(i);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
}

TEST(ParallelMap, SurvivingResultsAreOrdered) {
  const auto r = parallel_map(100, 8, [](std::size_t i) { return i * i; });
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], i * i);
}

}  // namespace
}  // namespace drrg
