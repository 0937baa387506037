// Golden determinism tests: the bit-identity contract of the flat-core
// engine rewrite.
//
// The checksums below were generated from the PRE-rewrite tree (generic
// Network-only hot path, per-round queue allocation, eager per-node RNGs)
// and must keep matching forever: the pooled-queue engine, the flat
// fault-free executors, the CSR topology view and the intra-run fan-outs
// are required to be *observationally invisible*.  Two families:
//
//   * kPreRewriteGoldens -- bit-identical to the pre-rewrite binary (all
//     complete-topology runs, plus every faulty run, which exercises the
//     generic engine path);
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
// Every sweep is additionally checked at --threads 1/4/8 (and the median
// bisection at intra_threads 1/4): any divergence is a scheduling leak.

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/report_hash.hpp"
#include "drr/drr.hpp"
#include "rootgossip/gossip_ave.hpp"
#include "rootgossip/gossip_max.hpp"
#include "rootgossip/ordered_key.hpp"
#include "support/parallel.hpp"

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

TEST(GoldenDeterminism, MedianIntraThreadsAreBitIdentical) {
  api::RunSpec spec = spec_of(128, api::Aggregate::kMedian, 5);
  const std::uint64_t inline_hash = api::report_checksum(api::run("drr", spec));
  spec.intra_threads = 4;
  EXPECT_EQ(api::report_checksum(api::run("drr", spec)), inline_hash);
  spec.intra_threads = 0;  // all cores
  EXPECT_EQ(api::report_checksum(api::run("drr", spec)), inline_hash);
}

// Intra-round sharding (engine-level, kShardable protocols, batches past
// the activation floor) must be byte-invisible: the same run hashed at
// intra_threads 1/4/8/0 on a batch size that actually activates the
// sharded scan and delivery paths (n >= 2048), with loss + crash so the
// serial drop pass and the tag merge are both exercised.
TEST(GoldenDeterminism, ShardedEngineIsIntraThreadInvariant) {
  for (const api::Aggregate agg : {api::Aggregate::kAve, api::Aggregate::kMax}) {
    api::RunSpec spec = spec_of(8192, agg, 7);
    spec.faults.loss_prob = 0.05;
    spec.faults.crash_fraction = 0.1;
    const std::uint64_t serial = api::report_checksum(api::run("uniform", spec));
    for (const unsigned intra : {4u, 8u, 0u}) {
      spec.intra_threads = intra;
      EXPECT_EQ(api::report_checksum(api::run("uniform", spec)), serial)
          << "agg " << static_cast<int>(agg) << " intra_threads " << intra;
    }
  }
}

// The flat fault-free executors (run_drr_flat, run_convergecast_flat,
// run_broadcast_flat and Phase III's run_flat_root_gossip) must agree
// with the generic engine path byte for byte.  A vanishing loss
// probability forces the engine path (fault_free() is false) while
// leaving every delivery intact -- the loss stream feeds nothing else --
// so the pair must hash equal on every substrate.
TEST(GoldenDeterminism, FlatExecutorsMatchEnginePath) {
  for (const sim::TopologyKind kind :
       {sim::TopologyKind::kComplete, sim::TopologyKind::kChordRing,
        sim::TopologyKind::kRandomRegular, sim::TopologyKind::kGrid2d}) {
    for (const api::Aggregate agg : {api::Aggregate::kAve, api::Aggregate::kMax}) {
      api::RunSpec flat = spec_of(256, agg, 97);
      flat.topology.kind = kind;
      api::RunSpec engine = flat;
      engine.faults.loss_prob = 1e-300;  // engine path, zero effective loss
      const api::RunReport a = api::run("drr", flat);
      const api::RunReport b = api::run("drr", engine);
      EXPECT_EQ(a.value, b.value) << sim::to_string(kind);
      EXPECT_EQ(a.consensus, b.consensus) << sim::to_string(kind);
      EXPECT_EQ(a.rounds, b.rounds) << sim::to_string(kind);
      EXPECT_EQ(a.cost.sent, b.cost.sent) << sim::to_string(kind);
      EXPECT_EQ(a.cost.delivered, b.cost.delivered) << sim::to_string(kind);
      EXPECT_EQ(a.cost.bits, b.cost.bits) << sim::to_string(kind);
      EXPECT_EQ(a.forest.num_trees, b.forest.num_trees) << sim::to_string(kind);
    }
  }
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

// Phase III's flat executor, called directly: gossip-max, data-spread
// and push-sum (Ave and the one-hot Sum/Count denominator) on the flat
// path and on the engine path forced by 1e-300 loss must agree bit for
// bit -- keys, the post-gossip snapshot, (num, den) and every counter --
// with and without the member relay, at two round budgets and two
// stream tags.
TEST(GoldenDeterminism, FlatRootGossipMatchesEnginePath) {
  const std::uint32_t n = 256;
  for (const sim::TopologyKind kind : {sim::TopologyKind::kComplete, sim::TopologyKind::kGrid2d}) {
    const sim::Topology topology = sim::make_topology({kind}, n, 5);
    const sim::Scenario flat{topology, {}};
    const sim::Scenario engine{topology, sim::FaultSchedule{1e-300, 0.0}};
    const RngFactory rngs{31};
    const DrrResult drr = run_drr(n, rngs, flat);
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
          const std::string what = std::string{sim::to_string(kind)} + " relay " +
                                   std::to_string(relay) + " scale " +
                                   std::to_string(scale) + " tag " + std::to_string(tag);
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
            const PushSumResult pb = run_root_push_sum(forest, num0, *den0, rngs, engine, ps);
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
