// Tests of the scenario engine: pluggable topologies, fault schedules
// (mid-run churn) through the sim core, and the deterministic parallel
// trial executor.

#include <gtest/gtest.h>

#include <vector>

#include "api/registry.hpp"
#include "api/report_hash.hpp"
#include "api/scenario_text.hpp"
#include "sim/engine.hpp"
#include "sim/topology.hpp"

namespace drrg {
namespace {

// ---------------------------------------------------------------------------
// Topology builders: invariants per family.

TEST(Topology, CompleteSamplesAllOfV) {
  sim::Topology t = sim::Topology::complete();
  Rng rng{7};
  std::vector<bool> seen(16, false);
  for (int i = 0; i < 2000; ++i) seen[t.sample_peer(3, 16, rng)] = true;
  for (NodeId v = 0; v < 16; ++v) EXPECT_TRUE(seen[v]) << v;
}

TEST(Topology, ChordRingInvariants) {
  const auto t = sim::make_topology({sim::TopologyKind::kChordRing}, 256, 1);
  ASSERT_NE(t.graph(), nullptr);
  EXPECT_TRUE(t.graph()->connected());
  // Successor edges alone make a cycle: minimum degree >= 2.
  EXPECT_GE(t.graph()->min_degree(), 2u);
  // Finger edges keep the degree logarithmic, not linear.
  EXPECT_LE(t.graph()->max_degree(), 64u);
}

TEST(Topology, RandomRegularInvariants) {
  sim::TopologySpec spec{sim::TopologyKind::kRandomRegular};
  spec.degree = 8;
  const auto t = sim::make_topology(spec, 200, 3);
  ASSERT_NE(t.graph(), nullptr);
  EXPECT_TRUE(t.graph()->connected());
  for (NodeId v = 0; v < 200; ++v) EXPECT_EQ(t.graph()->degree(v), 8u) << v;
}

TEST(Topology, OddDegreeSumIsBumpedToEven) {
  sim::TopologySpec spec{sim::TopologyKind::kRandomRegular};
  spec.degree = 3;
  const auto t = sim::make_topology(spec, 99, 3);  // 99 * 3 odd -> d = 4
  ASSERT_NE(t.graph(), nullptr);
  for (NodeId v = 0; v < 99; ++v) EXPECT_EQ(t.graph()->degree(v), 4u) << v;
}

TEST(Topology, GridInvariants) {
  const auto t = sim::make_topology({sim::TopologyKind::kGrid2d}, 12 * 16, 0);
  ASSERT_NE(t.graph(), nullptr);
  EXPECT_TRUE(t.graph()->connected());
  EXPECT_GE(t.graph()->min_degree(), 2u);
  EXPECT_LE(t.graph()->max_degree(), 4u);
  sim::TopologySpec torus{sim::TopologyKind::kGrid2d};
  torus.torus = true;
  const auto t2 = sim::make_topology(torus, 12 * 16, 0);
  for (NodeId v = 0; v < 12 * 16; ++v) EXPECT_EQ(t2.graph()->degree(v), 4u) << v;
}

TEST(Topology, GraphSamplingStaysOnEdges) {
  sim::TopologySpec spec{sim::TopologyKind::kRandomRegular};
  spec.degree = 6;
  const auto t = sim::make_topology(spec, 64, 9);
  Rng rng{11};
  for (int i = 0; i < 500; ++i) {
    const NodeId caller = static_cast<NodeId>(i % 64);
    const NodeId peer = t.sample_peer(caller, 64, rng);
    EXPECT_TRUE(t.graph()->has_edge(caller, peer)) << caller << "->" << peer;
  }
}

TEST(Topology, NamesRoundTrip) {
  for (const char* name : {"complete", "chord-ring", "random-regular", "grid", "torus"}) {
    const auto spec = sim::topology_from_name(name);
    ASSERT_TRUE(spec.has_value()) << name;
  }
  EXPECT_FALSE(sim::topology_from_name("no-such-topology").has_value());
  EXPECT_EQ(sim::to_string(sim::TopologyKind::kChordRing), "chord-ring");
}

// ---------------------------------------------------------------------------
// Churn: scheduled mid-run crashes through the engine.

struct Ping {
  int tag = 0;
};

/// Every node calls its ring successor each round; deliveries are logged.
struct RingFlood {
  std::vector<std::vector<std::uint32_t>> delivered_at;  // node -> rounds
  std::vector<std::vector<std::uint32_t>> sent_at;       // node -> rounds
  explicit RingFlood(std::uint32_t n) : delivered_at(n), sent_at(n) {}

  void on_round(sim::Network<Ping>& net, sim::NodeId v) {
    sent_at[v].push_back(net.global_round());
    net.send(v, (v + 1) % net.size(), Ping{}, 4);
  }
  void on_message(sim::Network<Ping>& net, sim::NodeId, sim::NodeId dst, const Ping&) {
    delivered_at[dst].push_back(net.global_round());
  }
};

TEST(Churn, CrashedNodeStopsAppearingInDeliveries) {
  const std::uint32_t n = 64;
  RngFactory rngs{21};
  sim::FaultSchedule faults;
  faults.churn = {{5, 0.25}};
  sim::Network<Ping> net{n, rngs, faults};
  EXPECT_EQ(net.alive_nodes().size(), n);  // nobody dead before round 5

  RingFlood proto{n};
  net.run(proto, 12);

  const auto death = sim::fault_timeline(n, rngs, faults);
  std::uint32_t crashed = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (death[v] == sim::kNeverCrashes) continue;
    ++crashed;
    EXPECT_EQ(death[v], 5u);
    EXPECT_FALSE(net.alive(v));
    // The victim neither received nor initiated anything from round 5 on.
    for (std::uint32_t r : proto.delivered_at[v]) EXPECT_LT(r, 5u) << v;
    for (std::uint32_t r : proto.sent_at[v]) EXPECT_LT(r, 5u) << v;
    // ... but it did take part before the event.
    EXPECT_FALSE(proto.sent_at[v].empty()) << v;
  }
  EXPECT_EQ(crashed, 16u);  // 25% of 64
  EXPECT_EQ(net.alive_nodes().size(), n - crashed);
}

TEST(Churn, StartRoundOffsetsTheSchedule) {
  // A network whose clock starts at round 10 must see a round-5 event as
  // already applied at construction.
  const std::uint32_t n = 32;
  RngFactory rngs{22};
  sim::FaultSchedule faults;
  faults.churn = {{5, 0.5}};
  sim::Scenario late{sim::Topology::complete(), faults};
  late.start_round = 10;
  sim::Network<Ping> net{n, rngs, late};
  const auto survivors = sim::survivor_mask(n, rngs, faults);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(net.alive(v), survivors[v]) << v;
}

TEST(Churn, TimelineIsPurposeIndependentAndMatchesCrashMask) {
  const std::uint32_t n = 100;
  RngFactory rngs{23};
  sim::FaultSchedule faults;
  faults.crash_fraction = 0.3;
  const auto death = sim::fault_timeline(n, rngs, faults);
  const auto mask = sim::crash_mask(n, rngs, faults.crash_fraction);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(death[v] == 0, mask[v]) << v;
}

TEST(Churn, ParseAndFormat) {
  const auto churn = api::parse_churn("10:0.1,20:0.05");
  ASSERT_TRUE(churn.has_value());
  ASSERT_EQ(churn->size(), 2u);
  EXPECT_EQ((*churn)[0].round, 10u);
  EXPECT_DOUBLE_EQ((*churn)[0].fraction, 0.1);
  EXPECT_EQ(api::format_churn(*churn), "10:0.1,20:0.05");
  EXPECT_FALSE(api::parse_churn("10").has_value());
  EXPECT_FALSE(api::parse_churn("10:2.0").has_value());
  EXPECT_FALSE(api::parse_churn(":0.1").has_value());
  EXPECT_TRUE(api::parse_churn("").has_value());
}

// ---------------------------------------------------------------------------
// End-to-end: scenario runs through the api facade.

api::RunSpec scenario_spec(std::uint32_t n, api::Aggregate agg) {
  api::RunSpec spec;
  spec.n = n;
  spec.aggregate = agg;
  spec.seed = 77;
  return spec;
}

TEST(ScenarioRuns, TopologiesRunEndToEnd) {
  for (const sim::TopologyKind kind :
       {sim::TopologyKind::kChordRing, sim::TopologyKind::kRandomRegular,
        sim::TopologyKind::kGrid2d}) {
    api::RunSpec spec = scenario_spec(256, api::Aggregate::kAve);
    spec.topology.kind = kind;
    const api::RunReport r = api::run("drr", spec);
    ASSERT_TRUE(r.ok()) << sim::to_string(kind) << ": " << r.error;
    EXPECT_GT(r.cost.sent, 0u);
    // Determinism on every substrate.
    const api::RunReport r2 = api::run("drr", spec);
    EXPECT_EQ(r.value, r2.value);
    EXPECT_EQ(r.cost.sent, r2.cost.sent);
  }
}

TEST(ScenarioRuns, ChordFamiliesRejectTopologySpec) {
  api::RunSpec spec = scenario_spec(128, api::Aggregate::kMax);
  spec.topology.kind = sim::TopologyKind::kGrid2d;
  for (const char* algo : {"chord-drr", "chord-uniform"}) {
    const api::RunReport r = api::run(algo, spec);
    EXPECT_FALSE(r.ok()) << algo;
    EXPECT_NE(r.error.find("topology"), std::string::npos) << algo;
  }
}

// ---------------------------------------------------------------------------
// chord-drr on the shared engine: the full fault schedule applies (the old
// RoutedTransport replay map rejected churn outright), and the sparse
// pipeline opens explicit substrates through --pipeline sparse.

TEST(ScenarioRuns, ChordDrrRunsMidRunChurn) {
  // Mirrors the chord-uniform churn cases: the run must *succeed* (no
  // "no churn yet" error report), report only final survivors as
  // participating, and the surviving roots must agree.  Under churn the
  // agreed maximum may legitimately exceed the survivor truth (a value
  // that circulated before its holder crashed), so agreement -- not
  // equality -- is the max criterion; Ave is additionally pinned to the
  // survivor truth within a few percent.
  for (const api::Aggregate agg : {api::Aggregate::kMax, api::Aggregate::kAve}) {
    api::RunSpec spec = scenario_spec(1024, agg);
    spec.seed = 42;
    spec.faults.churn = {{30, 0.1}, {120, 0.1}};
    const api::RunReport r = api::run("chord-drr", spec);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.consensus) << api::to_string(agg);
    const auto survivors =
        sim::survivor_mask(spec.n, RngFactory{spec.seed}, spec.faults);
    ASSERT_EQ(r.participating.size(), survivors.size());
    std::uint32_t alive = 0;
    for (NodeId v = 0; v < spec.n; ++v) {
      EXPECT_LE(r.participating[v], survivors[v]) << v;  // no dead "participant"
      alive += r.participating[v] ? 1 : 0;
    }
    EXPECT_LT(alive, spec.n);  // the schedule really killed someone
    if (agg == api::Aggregate::kAve) {
      EXPECT_LT(r.rel_error(), 0.05);
    }
  }
}

TEST(ScenarioRuns, ChordDrrSurvivesTheFullCombinedSchedule) {
  api::RunSpec spec = scenario_spec(1024, api::Aggregate::kAve);
  spec.seed = 42;
  spec.faults = sim::FaultSchedule{0.02, 0.1, {{30, 0.1}, {120, 0.1}}};
  const api::RunReport r = api::run("chord-drr", spec);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.consensus);
  EXPECT_LT(r.rel_error(), 0.05);
}

// Pins the engine port against the recorded RoutedTransport semantics.
// Before deletion the old path measured, at n = 512 seed 7 loss 0 (CLI
// --algo chord-drr): Max = truth exactly with consensus, and Ave within
// 3e-3 of truth -- the outcome contract the engine path must preserve.
// The two paths cannot be message-identical (the replay map drew loss
// coins per logical send, the engine draws per hop), so the outcome, not
// the traffic, is the pin.  The 1e-300-loss half forces the lossy code
// paths -- the engine's and the flat Phase II executors' (coins drawn,
// none fire) -- and must reproduce the loss-free run byte for byte,
// proving the loss machinery itself perturbs nothing.
TEST(ScenarioRuns, ChordDrrEnginePathKeepsRoutedTransportSemantics) {
  for (const api::Aggregate agg : {api::Aggregate::kMax, api::Aggregate::kAve}) {
    api::RunSpec spec = scenario_spec(512, agg);
    spec.seed = 7;
    const api::RunReport r = api::run("chord-drr", spec);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.consensus);
    if (agg == api::Aggregate::kMax) {
      EXPECT_DOUBLE_EQ(r.value, r.truth);
    } else {
      EXPECT_LT(r.rel_error(), 3e-3);
    }

    api::RunSpec lossy = spec;
    lossy.faults.loss_prob = 1e-300;  // lossy paths, zero effective loss
    EXPECT_EQ(api::report_checksum(api::run("chord-drr", lossy)),
              api::report_checksum(r))
        << api::to_string(agg);
  }
}

TEST(ScenarioRuns, SparsePipelineRequiresAnExplicitSubstrate) {
  api::RunSpec spec = scenario_spec(256, api::Aggregate::kAve);
  spec.pipeline = api::Pipeline::kSparse;
  const api::RunReport complete = api::run("drr", spec);
  EXPECT_FALSE(complete.ok());
  EXPECT_NE(complete.error.find("explicit substrate"), std::string::npos);

  spec.topology.kind = sim::TopologyKind::kGrid2d;
  spec.aggregate = api::Aggregate::kMedian;
  const api::RunReport median = api::run("drr", spec);
  EXPECT_FALSE(median.ok());
  EXPECT_NE(median.error.find("max and ave"), std::string::npos);
}

TEST(ScenarioRuns, SparsePipelineComputesExactMaxOnSubstrates) {
  for (const sim::TopologyKind kind :
       {sim::TopologyKind::kGrid2d, sim::TopologyKind::kRandomRegular,
        sim::TopologyKind::kChordRing}) {
    api::RunSpec spec = scenario_spec(512, api::Aggregate::kMax);
    spec.topology.kind = kind;
    spec.pipeline = api::Pipeline::kSparse;
    const api::RunReport r = api::run("drr", spec);
    ASSERT_TRUE(r.ok()) << sim::to_string(kind) << ": " << r.error;
    EXPECT_TRUE(r.consensus) << sim::to_string(kind);
    EXPECT_DOUBLE_EQ(r.value, r.truth) << sim::to_string(kind);
  }
}

// The Ave-accuracy win the port was for: tree aggregation + *routed*
// near-uniform push-sum mixes like the complete graph, where the dense
// pipeline's neighbor-constrained member relay only diffuses (mixing time
// Theta(diam^2) against an O(diam log n) budget -- the PR 4 residual).
// Sparse must beat dense on value error at no larger a round budget.
TEST(ScenarioRuns, SparseAveBeatsDiffusivePushSumOnLattices) {
  for (const bool torus : {false, true}) {
    api::RunSpec spec = scenario_spec(1024, api::Aggregate::kAve);
    spec.seed = 42;
    spec.topology.kind = sim::TopologyKind::kGrid2d;
    spec.topology.torus = torus;
    const api::RunReport dense = api::run("drr", spec);
    spec.pipeline = api::Pipeline::kSparse;
    const api::RunReport sparse = api::run("drr", spec);
    ASSERT_TRUE(dense.ok() && sparse.ok()) << dense.error << sparse.error;
    EXPECT_TRUE(sparse.consensus);
    EXPECT_LE(sparse.rounds, dense.rounds) << (torus ? "torus" : "grid");
    EXPECT_LT(sparse.rel_error(), dense.rel_error()) << (torus ? "torus" : "grid");
    EXPECT_LT(sparse.rel_error(), 0.02) << (torus ? "torus" : "grid");
  }
}

TEST(ScenarioRuns, ChurnReportsFinalSurvivors) {
  api::RunSpec spec = scenario_spec(512, api::Aggregate::kCount);
  spec.faults.churn = {{6, 0.1}, {14, 0.1}};
  const api::RunReport r = api::run("drr", spec);
  ASSERT_TRUE(r.ok()) << r.error;
  const auto survivors = sim::survivor_mask(spec.n, RngFactory{spec.seed}, spec.faults);
  std::uint32_t expected = 0;
  for (bool s : survivors) expected += s ? 1 : 0;
  EXPECT_LT(expected, 512u);  // the schedule really killed someone
  ASSERT_EQ(r.participating.size(), survivors.size());
  for (NodeId v = 0; v < spec.n; ++v)
    EXPECT_LE(r.participating[v], survivors[v]) << v;  // no dead "participant"
  EXPECT_DOUBLE_EQ(r.truth, static_cast<double>(expected));
}

// ---------------------------------------------------------------------------
// Satellite regressions: push-sum mass conservation under crashes, and the
// quantile bisection sharing one crash set.

TEST(ScenarioRuns, CountIsAccurateUnderInitialCrashes) {
  // The historical drift (ROADMAP): n=1024 seed=42 crash 0.1 -> 1048.6 vs
  // 922 true.  With lost-mass recovery the estimate tracks the survivor
  // count tightly at delta = 0.
  for (const double crash : {0.1, 0.25, 0.3}) {
    api::RunSpec spec = scenario_spec(1024, api::Aggregate::kCount);
    spec.seed = 42;
    spec.faults.crash_fraction = crash;
    const api::RunReport r = api::run("drr", spec);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_LT(r.rel_error(), 0.02) << "crash " << crash << ": " << r.value
                                   << " vs " << r.truth;
  }
}

TEST(ScenarioRuns, MedianSharesOneCrashSetAcrossSubRuns) {
  api::RunSpec spec = scenario_spec(512, api::Aggregate::kMedian);
  spec.faults.crash_fraction = 0.3;
  const api::RunReport r = api::run("drr", spec);
  ASSERT_TRUE(r.ok()) << r.error;
  // The adapter reports the shared survivor population again...
  const auto survivors = sim::survivor_mask(spec.n, RngFactory{spec.seed}, spec.faults);
  ASSERT_EQ(r.participating.size(), survivors.size());
  EXPECT_EQ(r.participating, survivors);
  // ... and the estimate brackets the survivor median, not the all-nodes
  // one (truth is computed over survivors).
  EXPECT_LT(r.rel_error(), 0.05);
}

// ---------------------------------------------------------------------------
// Deterministic parallel executor.

void expect_identical(const std::vector<api::RunReport>& a,
                      const std::vector<api::RunReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << i;
    EXPECT_EQ(a[i].value, b[i].value) << i;
    EXPECT_EQ(a[i].truth, b[i].truth) << i;
    EXPECT_EQ(a[i].consensus, b[i].consensus) << i;
    EXPECT_EQ(a[i].rounds, b[i].rounds) << i;
    EXPECT_EQ(a[i].cost.sent, b[i].cost.sent) << i;
    EXPECT_EQ(a[i].cost.bits, b[i].cost.bits) << i;
    EXPECT_EQ(a[i].participating, b[i].participating) << i;
  }
}

TEST(ParallelTrials, BitIdenticalAcrossThreadCounts) {
  api::RunSpec spec = scenario_spec(256, api::Aggregate::kAve);
  spec.faults = sim::FaultSchedule{0.05, 0.1};
  spec.faults.churn = {{8, 0.05}};
  const auto serial = api::run_trials("drr", spec, 9, 1);
  ASSERT_EQ(serial.size(), 9u);
  for (const unsigned threads : {4u, 8u, 0u}) {
    const auto parallel = api::run_trials("drr", spec, 9, threads);
    expect_identical(serial, parallel);
  }
}

TEST(ParallelTrials, MatrixBitIdenticalAcrossThreadCounts) {
  api::RunSpec base = scenario_spec(128, api::Aggregate::kAve);
  const auto serial = api::run_matrix(base, 1);
  const auto parallel = api::run_matrix(base, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].algorithm, parallel[i].algorithm) << i;
    EXPECT_EQ(serial[i].aggregate, parallel[i].aggregate) << i;
    EXPECT_EQ(serial[i].value, parallel[i].value) << i;
    EXPECT_EQ(serial[i].cost.sent, parallel[i].cost.sent) << i;
    EXPECT_EQ(serial[i].error, parallel[i].error) << i;
  }
}

TEST(ParallelTrials, TrialSeedsAreDerivedNotConsecutive) {
  EXPECT_EQ(api::trial_seed(42, 0), 42u);
  EXPECT_NE(api::trial_seed(42, 1), 43u);
  EXPECT_NE(api::trial_seed(42, 1), api::trial_seed(42, 2));
  EXPECT_NE(api::trial_seed(42, 1), api::trial_seed(43, 1));
}

}  // namespace
}  // namespace drrg
