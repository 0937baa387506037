// Built-in registry entries: one invoke adapter per algorithm family,
// mapping the uniform RunSpec onto each family's native signature and its
// native result struct back onto the uniform RunReport.
//
// Conventions shared by every adapter:
//   * inputs: spec.values when provided, else a synthetic workload
//     derived from the seed (positive-only where the algorithm needs it);
//   * scenario: the spec's topology is materialised from the spec's seed
//     and bundled with the fault schedule into a sim::Scenario; adapters
//     whose algorithm fixes its own substrate (the Chord overlays) reject
//     a non-complete topology spec instead of silently ignoring it;
//   * truth: workload::compute_truth over the schedule's final survivors
//     when the run has crashes, over all nodes otherwise;
//   * consensus for the epsilon-convergent averagers (push-sum, pairwise)
//     keeps the historical CLI meaning: max relative error below the
//     family's epsilon threshold.

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "api/registry.hpp"
#include "api/scenario_text.hpp"
#include "aggregate/derived.hpp"
#include "aggregate/drr_gossip.hpp"
#include "net/multiproc.hpp"
#include "sim/engine.hpp"

namespace drrg::api {
namespace detail {
namespace {

using workload::compute_truth;
using workload::Truth;

/// spec.config as a T: monostate -> defaults; wrong alternative -> error.
template <class T>
[[nodiscard]] T config_as(const RunSpec& spec, RunReport& report) {
  if (std::holds_alternative<std::monostate>(spec.config)) return T{};
  if (const T* cfg = std::get_if<T>(&spec.config)) return *cfg;
  report.error = "config variant does not hold the algorithm's config type";
  return T{};
}

[[nodiscard]] RunReport make_report(const RunSpec& spec, std::string name) {
  RunReport report;
  report.algorithm = std::move(name);
  report.aggregate = spec.aggregate;
  report.n = spec.n;
  report.seed = spec.seed;
  return report;
}

[[nodiscard]] std::vector<double> materialize_values(const RunSpec& spec,
                                                     bool positive_only) {
  if (!spec.values.empty()) return spec.values;
  workload::ValueRange range = spec.workload_range;
  if (positive_only && range.lo <= 0.0) range = workload::positive_range();
  return workload::make_values(spec.n, spec.seed, range);
}

/// Thread-safe memo of the last value built: get() returns the held value
/// when `key` matches and `usable` accepts it, else builds a value outside
/// the lock and holds it.  Values are O(1) shared_ptr-backed handles.
template <class Key, class Value>
class LastEntryMemo {
 public:
  template <class Build, class Usable>
  [[nodiscard]] Value get(const Key& key, Build&& build, Usable&& usable) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (key_ == key && usable(value_)) return value_;
    }
    Value fresh = build();
    const std::lock_guard<std::mutex> lock(mu_);
    key_ = key;
    value_ = fresh;
    return fresh;
  }

 private:
  std::mutex mu_;
  std::optional<Key> key_;
  Value value_{};
};

/// The run's environment: topology materialised from the spec's seed
/// (randomized builders resample per trial) plus the fault schedule.
/// Materialisation is memoised (last-used entry): a Monte-Carlo sweep over
/// a deterministic substrate (grid, chord-ring) rebuilds the same CSR
/// arrays for every trial otherwise.  Randomized builders key on the
/// derived seed, so distinct trials still resample.  Topology copies are
/// O(1) shared_ptr handles, safe to share across the trial executor.
[[nodiscard]] sim::Scenario make_scenario(const RunSpec& spec) {
  if (spec.topology.is_complete()) {
    return sim::Scenario{sim::Topology::complete_of(spec.n), spec.faults};
  }
  const std::uint64_t seed = derive_seed(spec.seed, 0x7090ULL);
  const sim::TopologySpec topo_spec = effective_topology(spec);
  struct Key {
    sim::TopologyKind kind;
    std::uint32_t degree;
    bool torus;
    sim::TopologyBackend backend;
    std::uint32_t n;
    std::uint64_t seed;
    bool operator==(const Key&) const = default;
  };
  const bool randomized = spec.topology.kind == sim::TopologyKind::kRandomRegular;
  const Key key{topo_spec.kind, topo_spec.degree, topo_spec.torus, topo_spec.backend,
                spec.n, randomized ? seed : 0};
  static LastEntryMemo<Key, sim::Topology> memo;
  return sim::Scenario{memo.get(key, [&] { return sim::make_topology(topo_spec, spec.n, seed); },
                                [](const sim::Topology&) { return true; }),
                       spec.faults};
}

[[nodiscard]] bool has_crashes(const RunSpec& spec) {
  return spec.faults.crash_fraction > 0.0 || spec.faults.has_churn() ||
         spec.faults.has_blocks() || spec.faults.has_joins();
}

/// Final-survivor mask for algorithms whose result struct carries none:
/// every top-level entry point builds RngFactory{seed}, so the fault
/// timeline their engines will draw is reproducible here (empty mask when
/// nobody ever crashes).  `executed_rounds` bounds the schedule at the
/// run's actual horizon -- churn events the run never reached did not
/// fire, so their would-be victims count as participants.
[[nodiscard]] std::vector<bool> participating_mask(const RunSpec& spec,
                                                   std::uint32_t executed_rounds) {
  if (!has_crashes(spec)) return {};
  // Mid-run joiners bootstrap empty (they carry traffic but hold no
  // founding value), so the truth population is the surviving round-0
  // cohort whenever the schedule has joins.
  if (spec.faults.has_joins())
    return sim::founder_mask(spec.n, RngFactory{spec.seed}, spec.faults,
                             executed_rounds);
  return sim::survivor_mask(spec.n, RngFactory{spec.seed}, spec.faults,
                            executed_rounds);
}

/// Copies an AggregateOutcome (the DRR-family result) into a report.
void fill_from_outcome(RunReport& report, const AggregateOutcome& o) {
  report.value = o.value;
  report.consensus = o.consensus;
  report.rounds = o.rounds_total;
  report.phases = o.metrics;
  report.cost = o.metrics.total();
  report.forest = o.forest;
  report.participating = o.participating;
}

[[nodiscard]] double truth_for(Aggregate agg, const Truth& t) {
  switch (agg) {
    case Aggregate::kMax: return t.max;
    case Aggregate::kMin: return t.min;
    case Aggregate::kAve: return t.ave;
    case Aggregate::kSum: return t.sum;
    case Aggregate::kCount: return t.count;
    case Aggregate::kRank: return t.rank;
    case Aggregate::kMedian: return t.median;
    case Aggregate::kLeader: return 0.0;  // set by the leader adapter
  }
  return 0.0;
}

/// Memoised Chord substrate for the chord-* families (the overlay analog
/// of make_scenario's topology cache).  Both the overlay and its link
/// graph are pure functions of (n, seed), so a Monte-Carlo sweep -- or a
/// bench loop -- re-running one (n, seed) point reuses the finger tables
/// and the CSR adjacency instead of rebuilding them per run.  Last-used
/// entry only: distinct per-trial seeds still build their own overlays
/// (the resampling semantics), but the flat builders make that O(1)
/// allocations per build.  Handles are shared_ptr copies, safe to hold
/// across the trial executor's threads.
struct ChordSubstrate {
  std::shared_ptr<const ChordOverlay> overlay;
  std::shared_ptr<const Graph> links;  // only built when a caller wants it
};

[[nodiscard]] ChordSubstrate chord_substrate(std::uint32_t n, std::uint64_t seed,
                                             bool want_links) {
  struct Key {
    std::uint32_t n;
    std::uint64_t seed;
    bool operator==(const Key&) const = default;
  };
  const Key key{n, seed};
  static LastEntryMemo<Key, ChordSubstrate> memo;
  return memo.get(
      key,
      [&] {
        ChordSubstrate fresh;
        fresh.overlay = std::make_shared<const ChordOverlay>(n, seed);
        if (want_links)
          fresh.links = std::make_shared<const Graph>(overlay_graph(*fresh.overlay));
        return fresh;
      },
      // A cached entry built without links is rebuilt for a caller that
      // wants them.
      [&](const ChordSubstrate& cached) { return !want_links || cached.links != nullptr; });
}

/// Rejection helper for the Chord families, whose substrate is the
/// overlay itself: a non-complete topology spec would be ignored.
[[nodiscard]] bool reject_topology_spec(const RunSpec& spec, RunReport& report) {
  if (spec.topology.is_complete()) return false;
  report.error = std::string{"'"} + report.algorithm +
                 "' runs on its own Chord overlay; --topology does not apply";
  return true;
}

// ---------------------------------------------------------------------------
// drr: the full DRR-gossip pipelines (Algorithms 7-8 + derived aggregates),
// plus the §4 sparse pipeline on explicit substrates (--pipeline sparse).

/// The sparse pipeline on the spec's explicit substrate: Local-DRR on the
/// CSR adjacency, tree aggregation, routed root gossip.  Gives sparse
/// graphs an accurate Ave (tree sums + near-uniform routed push-sum)
/// where the dense pipeline's member-relay push-sum only diffuses.
RunReport run_drr_sparse(const RunSpec& spec, RunReport report) {
  if (spec.topology.is_complete()) {
    report.error =
        "--pipeline sparse needs an explicit substrate (--topology grid|torus|"
        "random-regular|chord-ring); the dense pipeline covers the complete graph";
    return report;
  }
  if (spec.aggregate != Aggregate::kMax && spec.aggregate != Aggregate::kAve) {
    report.error = "the sparse pipeline implements max and ave";
    return report;
  }
  SparseGossipConfig cfg;
  if (!std::holds_alternative<std::monostate>(spec.config)) {
    cfg = config_as<SparseGossipConfig>(spec, report);
    if (!report.error.empty()) return report;
  }
  const auto values = materialize_values(spec, /*positive_only=*/false);
  const sim::Scenario scenario = make_scenario(spec);
  const AggregateOutcome o =
      spec.aggregate == Aggregate::kMax
          ? sparse_drr_gossip_max(values, spec.seed, scenario, cfg)
          : sparse_drr_gossip_ave(values, spec.seed, scenario, cfg);
  fill_from_outcome(report, o);
  const Truth t = compute_truth(values, o.participating);
  report.truth = spec.aggregate == Aggregate::kMax ? t.max : t.ave;
  return report;
}

/// The multi-process runtime behind the same facade: forks one drrg_node
/// process per node, collects their pipe reports, and folds them into a
/// RunReport so the CLI / tests can compare a real-socket run against a
/// simulated one field by field.  The daemon computes every aggregate
/// exactly (root-table union of per-tree {max,min,sum,count}), so `value`
/// equals the simulator's bit for bit on max/min over the same fault
/// schedule, and matches the exact survivor truth on sum/count/ave up to
/// fold order.
RunReport run_drr_udp(const RunSpec& spec, RunReport report) {
  if (!net::multiproc_available()) {
    report.error = "udp transport unavailable on this platform";
    return report;
  }
  if (!spec.topology.is_complete()) {
    report.error = "--transport udp runs on the complete graph (the paper's model)";
    return report;
  }
  if (spec.pipeline != Pipeline::kDense) {
    report.error = "--transport udp implements the dense pipeline only";
    return report;
  }
  const bool structured = spec.faults.has_blocks() || spec.faults.has_partitions() ||
                          spec.faults.has_joins() || !spec.faults.latency.zero();
  // Structured adversity needs a wall clock to land on: block SIGKILLs,
  // partition cuts and join births are marks at round * round_ms.
  const std::int64_t round_ms =
      spec.udp_round_ms > 0 ? spec.udp_round_ms : (structured ? 250 : 0);
  if (structured && round_ms <= 0) {
    report.error =
        "--transport udp needs --round-ms > 0 for block-crash, partition, "
        "join or latency events";
    return report;
  }
  net::ChaosSpec chaos;
  if (!spec.udp_chaos.empty()) {
    const auto parsed = parse_chaos(spec.udp_chaos);
    if (!parsed.has_value()) {
      report.error = "malformed --chaos spec: " + spec.udp_chaos;
      return report;
    }
    chaos = *parsed;
  }
  switch (spec.aggregate) {
    case Aggregate::kMax:
    case Aggregate::kMin:
    case Aggregate::kAve:
    case Aggregate::kSum:
    case Aggregate::kCount:
      break;
    default:
      report.error = "--transport udp implements max/min/ave/sum/count";
      return report;
  }
  const auto values = materialize_values(spec, /*positive_only=*/false);

  net::ClusterOptions copt;
  copt.n = spec.n;
  copt.seed = spec.seed;
  copt.faults = spec.faults;
  copt.values = values;
  copt.port_base = spec.udp_port_base;
  copt.node_template.chaos = chaos;
  copt.node_template.round_ms = round_ms;
  copt.real_kills = round_ms > 0;
  if (copt.real_kills) {
    // Real SIGKILLs land on the bootstrap barrier: every node holds in
    // bootstrap until the last scheduled death mark has passed, so a
    // victim answers hellos and then vanishes ungracefully but never
    // pushes a founding value into the tree.  That keeps the surviving
    // cohort's fold bit-comparable with the simulator truth (which is
    // computed over the survivor mask) even for max/min, where a value
    // leaked by a dead node could never be retracted.
    const sim::FaultTimeline timeline =
        sim::full_timeline(spec.n, RngFactory{spec.seed}, spec.faults);
    std::int64_t latest_death = 0;
    for (const std::uint32_t d : timeline.death)
      if (d != 0 && d != sim::kNeverCrashes)
        latest_death = std::max(latest_death, static_cast<std::int64_t>(d) * round_ms);
    if (latest_death > 0) {
      copt.node_template.bootstrap_min_ms =
          std::max(copt.node_template.bootstrap_min_ms, latest_death + 750);
      copt.node_template.bootstrap_timeout_ms =
          std::max(copt.node_template.bootstrap_timeout_ms,
                   copt.node_template.bootstrap_min_ms + 3000);
      copt.node_template.deadline_ms += latest_death;
    }
  }
  // Cuts that heal mid-run need every survivor still listening past the
  // heal, plus headroom for the post-final re-convergence to settle.
  const net::ChaosSpec effective =
      net::chaos_with_faults(chaos, spec.faults, round_ms);
  std::int64_t latest_heal = 0;
  for (const net::ChaosCut& cut : effective.cuts)
    if (cut.heal_ms != net::ChaosCut::kNoHeal)
      latest_heal = std::max(latest_heal, cut.heal_ms);
  if (latest_heal > 0) {
    copt.node_template.linger_ms =
        std::max(copt.node_template.linger_ms, latest_heal + 4000);
    copt.node_template.deadline_ms =
        std::max(copt.node_template.deadline_ms, latest_heal + 15000);
  }
  if (!spec.udp_seed_list.empty()) {
    const auto seeds = net::parse_seed_list(spec.udp_seed_list);
    if (!seeds.has_value()) {
      report.error = "malformed seed list (want host:port,host:port,...)";
      return report;
    }
    copt.seed_list = *seeds;
  }
  const net::ClusterReport cluster = net::run_cluster(copt);

  // The whole schedule applies: real processes run to quiescence, so
  // unlike a round-bounded sim run there is no "churn we never reached".
  // Joiners bootstrap empty in both runtimes, so the truth population
  // under joins is the surviving round-0 cohort (founder_mask).
  report.participating =
      !has_crashes(spec)
          ? std::vector<bool>{}
          : (spec.faults.has_joins()
                 ? sim::founder_mask(spec.n, RngFactory{spec.seed}, spec.faults)
                 : sim::survivor_mask(spec.n, RngFactory{spec.seed}, spec.faults));

  const auto node_value = [&](const net::NodeReport& r) {
    switch (spec.aggregate) {
      case Aggregate::kMax: return r.max;
      case Aggregate::kMin: return r.min;
      case Aggregate::kSum: return r.sum;
      case Aggregate::kCount: return static_cast<double>(r.count);
      default:
        return r.count != 0 ? r.sum / static_cast<double>(r.count) : 0.0;  // ave
    }
  };

  bool consensus = true;
  bool first = true;
  std::uint32_t max_steps = 0;
  for (const net::NodeReport& r : cluster.nodes) {
    report.cost.sent += r.sent;
    report.cost.delivered += r.delivered;
    report.cost.bits += r.bits;
    if (r.scheduled_crash) continue;
    max_steps = std::max(max_steps, r.steps);
    if (!r.ok) {
      consensus = false;
      continue;
    }
    if (first) {
      report.value = node_value(r);
      first = false;
    } else if (node_value(r) != report.value) {
      consensus = false;
    }
  }
  report.consensus = consensus && cluster.ok;
  report.rounds = max_steps;
  report.cost.rounds = max_steps;
  report.truth = truth_for(spec.aggregate,
                           compute_truth(values, report.participating, spec.rank_threshold));
  if (!cluster.ok && report.error.empty()) report.error = cluster.error;
  return report;
}

RunReport run_drr(const RunSpec& spec) {
  RunReport report = make_report(spec, "drr");
  if (spec.transport == Transport::kUdp) return run_drr_udp(spec, std::move(report));
  if (spec.pipeline == Pipeline::kSparse) return run_drr_sparse(spec, std::move(report));
  const auto values = materialize_values(spec, /*positive_only=*/false);
  const sim::Scenario scenario = make_scenario(spec);

  if (spec.aggregate == Aggregate::kMedian) {
    // Accepts either a QuantileConfig or a plain DrrGossipConfig (used as
    // the per-query pipeline config of the rank bisection).
    QuantileConfig cfg;
    if (const QuantileConfig* qc = std::get_if<QuantileConfig>(&spec.config)) {
      cfg = *qc;
    } else {
      cfg.pipeline = config_as<DrrGossipConfig>(spec, report);
      if (!report.error.empty()) return report;
    }
    const QuantileOutcome q = drr_gossip_median(spec.n, values, spec.seed, scenario, cfg);
    report.value = q.value;
    report.consensus = true;  // every query run reached consensus internally
    report.cost = q.total;
    report.rounds = q.total.rounds;
    // All bisection sub-runs share one root seed and therefore one crash
    // set, so a single survivor population exists again: report it and
    // measure the error against the survivor median.
    report.participating = q.participating;
    report.truth = compute_truth(values, report.participating).median;
    return report;
  }

  const auto cfg = config_as<DrrGossipConfig>(spec, report);
  if (!report.error.empty()) return report;

  if (spec.aggregate == Aggregate::kLeader) {
    const LeaderOutcome l = drr_gossip_elect_leader(spec.n, spec.seed, scenario, cfg);
    fill_from_outcome(report, l.detail);
    report.value = static_cast<double>(l.leader);
    // The elected leader must be the largest participating id.
    double expect = 0.0;
    for (std::uint32_t v = 0; v < spec.n; ++v)
      if (l.detail.participating.empty() || l.detail.participating[v])
        expect = static_cast<double>(v);
    report.truth = expect;
    return report;
  }

  AggregateOutcome o;
  switch (spec.aggregate) {
    case Aggregate::kMax:
      o = drr_gossip_max(spec.n, values, spec.seed, scenario, cfg);
      break;
    case Aggregate::kMin:
      o = drr_gossip_min(spec.n, values, spec.seed, scenario, cfg);
      break;
    case Aggregate::kAve:
      o = drr_gossip_ave(spec.n, values, spec.seed, scenario, cfg);
      break;
    case Aggregate::kSum:
      o = drr_gossip_sum(spec.n, values, spec.seed, scenario, cfg);
      break;
    case Aggregate::kCount:
      o = drr_gossip_count(spec.n, spec.seed, scenario, cfg);
      break;
    case Aggregate::kRank:
      o = drr_gossip_rank(spec.n, values, spec.rank_threshold, spec.seed, scenario, cfg);
      break;
    default: break;  // unreachable: handled above / filtered by the registry
  }
  fill_from_outcome(report, o);
  report.truth = truth_for(spec.aggregate,
                           compute_truth(values, o.participating, spec.rank_threshold));
  return report;
}

// ---------------------------------------------------------------------------
// uniform: address-oblivious uniform gossip (Kempe et al. [9]).

RunReport run_uniform(const RunSpec& spec) {
  RunReport report = make_report(spec, "uniform");
  const auto values = materialize_values(spec, /*positive_only=*/false);
  const sim::Scenario scenario = make_scenario(spec);

  if (spec.aggregate == Aggregate::kMax) {
    const auto cfg = config_as<UniformPushMaxConfig>(spec, report);
    if (!report.error.empty()) return report;
    const UniformPushMaxResult r =
        uniform_push_max(spec.n, values, spec.seed, scenario, cfg);
    report.participating = participating_mask(spec, r.counters.rounds);
    // Max over survivors only: a crashed node keeps its stale initial
    // value, which may exceed the survivor maximum.
    double held = -std::numeric_limits<double>::infinity();
    for (std::size_t v = 0; v < r.value.size(); ++v)
      if (report.participating.empty() || report.participating[v])
        held = std::max(held, r.value[v]);
    report.value = held;
    report.consensus = r.consensus;
    report.rounds = r.rounds_to_consensus;
    report.cost = r.counters;
    report.truth =
        compute_truth(values, report.participating, spec.rank_threshold).max;
    return report;
  }

  const auto cfg = config_as<UniformPushSumConfig>(spec, report);
  if (!report.error.empty()) return report;
  const UniformPushSumResult r =
      uniform_push_sum(spec.n, values, spec.seed, scenario, cfg);
  report.participating = participating_mask(spec, r.counters.rounds);
  double first = 0.0;
  for (double e : r.estimate)
    if (e != 0.0) {
      first = e;
      break;
    }
  report.value = first;
  report.consensus = r.max_relative_error < 1e-3;
  report.rounds = r.counters.rounds;
  report.cost = r.counters;
  report.truth = compute_truth(values, report.participating, spec.rank_threshold).ave;
  return report;
}

// ---------------------------------------------------------------------------
// efficient: Kashyap et al. [8] group-merge gossip.

RunReport run_efficient(const RunSpec& spec) {
  RunReport report = make_report(spec, "efficient");
  const auto cfg = config_as<EfficientGossipConfig>(spec, report);
  if (!report.error.empty()) return report;
  const auto values = materialize_values(spec, /*positive_only=*/false);
  const sim::Scenario scenario = make_scenario(spec);
  const EfficientGossipResult r =
      spec.aggregate == Aggregate::kMax
          ? efficient_gossip_max(spec.n, values, spec.seed, scenario, cfg)
          : efficient_gossip_ave(spec.n, values, spec.seed, scenario, cfg);
  report.participating = participating_mask(spec, r.counters.rounds);
  const Truth t = compute_truth(values, report.participating, spec.rank_threshold);
  report.value = r.value;
  report.consensus = r.consensus;
  report.rounds = r.rounds_total;
  report.cost = r.counters;
  report.truth = spec.aggregate == Aggregate::kMax ? t.max : t.ave;
  return report;
}

// ---------------------------------------------------------------------------
// pairwise: randomized pairwise averaging (Boyd et al. [1]).

RunReport run_pairwise(const RunSpec& spec) {
  RunReport report = make_report(spec, "pairwise");
  const auto cfg = config_as<PairwiseConfig>(spec, report);
  if (!report.error.empty()) return report;
  const auto values = materialize_values(spec, /*positive_only=*/false);
  const sim::Scenario scenario = make_scenario(spec);
  const PairwiseResult r = pairwise_average(spec.n, values, spec.seed, scenario, cfg);
  report.participating = participating_mask(spec, r.counters.rounds);
  // First surviving node's value (node 0 may have crashed with its input).
  report.value = r.value.front();
  for (std::size_t v = 0; v < r.value.size(); ++v)
    if (report.participating.empty() || report.participating[v]) {
      report.value = r.value[v];
      break;
    }
  report.consensus = r.max_relative_error < 1e-3;
  report.rounds = r.counters.rounds;
  report.cost = r.counters;
  report.truth = compute_truth(values, report.participating).ave;
  return report;
}

// ---------------------------------------------------------------------------
// extrema: loss-robust Count/Sum via extrema propagation ([16]).

RunReport run_extrema(const RunSpec& spec) {
  RunReport report = make_report(spec, "extrema");
  const auto cfg = config_as<ExtremaConfig>(spec, report);
  if (!report.error.empty()) return report;
  const auto values = materialize_values(spec, /*positive_only=*/true);
  const sim::Scenario scenario = make_scenario(spec);
  const ExtremaOutcome r =
      spec.aggregate == Aggregate::kCount
          ? drr_gossip_count_extrema(spec.n, spec.seed, scenario, cfg)
          : drr_gossip_sum_extrema(spec.n, values, spec.seed, scenario, cfg);
  const auto participating = participating_mask(spec, r.counters.rounds);
  const Truth t = compute_truth(values, participating);
  report.value = r.estimate;
  report.consensus = r.consensus;
  report.rounds = r.rounds_total;
  report.cost = r.counters;
  report.participating = participating;
  report.truth = spec.aggregate == Aggregate::kCount ? t.count : t.sum;
  return report;
}

// ---------------------------------------------------------------------------
// chord-drr / chord-uniform: the §4 sparse pipelines on a Chord overlay.

RunReport run_chord_drr(const RunSpec& spec) {
  RunReport report = make_report(spec, "chord-drr");
  if (reject_topology_spec(spec, report)) return report;
  const auto cfg = config_as<SparseGossipConfig>(spec, report);
  if (!report.error.empty()) return report;
  const auto values = materialize_values(spec, /*positive_only=*/false);
  const ChordSubstrate sub = chord_substrate(spec.n, spec.seed, /*want_links=*/true);
  // Engine-ported Phase III: every G~ send expands hop by hop on the
  // shared sim::Network, so the full fault schedule -- including mid-run
  // churn, which the old RoutedTransport replay map had to reject --
  // applies to intermediate routing hops and tree walks alike.
  const sim::Scenario scenario{sim::Topology::complete(), spec.faults};
  const AggregateOutcome o =
      spec.aggregate == Aggregate::kMax
          ? sparse_drr_gossip_max(*sub.overlay, *sub.links, values, spec.seed, scenario,
                                  cfg)
          : sparse_drr_gossip_ave(*sub.overlay, *sub.links, values, spec.seed, scenario,
                                  cfg);
  fill_from_outcome(report, o);
  const Truth t = compute_truth(values, o.participating);
  report.truth = spec.aggregate == Aggregate::kMax ? t.max : t.ave;
  return report;
}

RunReport run_chord_uniform(const RunSpec& spec) {
  RunReport report = make_report(spec, "chord-uniform");
  if (reject_topology_spec(spec, report)) return report;
  const auto cfg = config_as<ChordUniformConfig>(spec, report);
  if (!report.error.empty()) return report;
  const auto values = materialize_values(spec, /*positive_only=*/false);
  const ChordSubstrate sub = chord_substrate(spec.n, spec.seed, /*want_links=*/false);
  const ChordOverlay& chord = *sub.overlay;
  // The engine port gave this baseline the full fault schedule: crashes
  // and churn hit intermediate routing hops like every other protocol.
  const sim::Scenario scenario{sim::Topology::complete(), spec.faults};
  const ChordUniformResult r =
      spec.aggregate == Aggregate::kMax
          ? chord_uniform_push_max(chord, values, spec.seed, scenario, cfg)
          : chord_uniform_push_sum(chord, values, spec.seed, scenario, cfg);
  report.participating = participating_mask(spec, r.counters.rounds);
  const Truth t = compute_truth(values, report.participating);
  double held = 0.0;
  for (std::size_t v = 0; v < r.value.size(); ++v)
    if (report.participating.empty() || report.participating[v]) {
      held = r.value[v];
      break;
    }
  if (spec.aggregate == Aggregate::kMax) {
    held = -std::numeric_limits<double>::infinity();
    for (std::size_t v = 0; v < r.value.size(); ++v)
      if (report.participating.empty() || report.participating[v])
        held = std::max(held, r.value[v]);
  }
  report.value = held;
  report.consensus =
      spec.aggregate == Aggregate::kMax ? r.consensus : r.max_relative_error < 1e-2;
  report.rounds = r.rounds;
  report.cost = r.counters;
  report.truth = spec.aggregate == Aggregate::kMax ? t.max : t.ave;
  return report;
}

}  // namespace

void register_builtin_algorithms(Registry& registry) {
  using A = Aggregate;
  registry.add({.name = "drr",
                .description = "DRR-gossip pipelines (Algorithms 7-8 + derived)",
                .aggregates = {A::kMax, A::kMin, A::kAve, A::kSum, A::kCount, A::kRank,
                               A::kMedian, A::kLeader},
                .transports = {Transport::kSim, Transport::kUdp},
                .invoke = run_drr});
  registry.add({.name = "uniform",
                .description = "uniform gossip / push-sum (Kempe et al. [9])",
                .aggregates = {A::kMax, A::kAve},
                .transports = {Transport::kSim},
                .invoke = run_uniform});
  registry.add({.name = "efficient",
                .description = "group-merge gossip (Kashyap et al. [8])",
                .aggregates = {A::kMax, A::kAve},
                .transports = {Transport::kSim},
                .invoke = run_efficient});
  registry.add({.name = "pairwise",
                .description = "pairwise averaging (Boyd et al. [1])",
                .aggregates = {A::kAve},
                .transports = {Transport::kSim},
                .invoke = run_pairwise});
  registry.add({.name = "extrema",
                .description = "loss-robust Count/Sum via extrema propagation [16]",
                .aggregates = {A::kCount, A::kSum},
                .transports = {Transport::kSim},
                .invoke = run_extrema});
  registry.add({.name = "chord-drr",
                .description =
                    "sparse DRR-gossip on a Chord overlay (Theorem 14; engine port)",
                .aggregates = {A::kMax, A::kAve},
                .transports = {Transport::kSim},
                .invoke = run_chord_drr});
  registry.add({.name = "chord-uniform",
                .description = "routed uniform gossip on Chord (engine port; §4 baseline)",
                .aggregates = {A::kMax, A::kAve},
                .transports = {Transport::kSim},
                .invoke = run_chord_uniform});
}

}  // namespace detail
}  // namespace drrg::api
