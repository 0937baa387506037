// drrg_bench -- the repository benchmark (bench/e2e/README.md).
//
//   drrg_bench --workload NAME --seed S [--seconds T] [--trace FILE] [--setup-only]
//
// One invocation runs one workload, single-threaded, in this process.  Run
// i uses seed_i = api::trial_seed(S, i): its inputs are
// workload::make_values(n, seed_i), handed to api::run together with the
// seed.  Three untimed warm-up runs on seeds outside that set come first
// (set-up).  Then runs are timed one by one with steady_clock, over as
// many seeds as fit in T/4 seconds, and the same seeds run three more
// times; a seed's time is the fastest of its four runs.  Every run is checked
// against the workload's oracle (survivor consensus and a relative-error
// tolerance).  The last line of stdout is one JSON object: every metric
// with its value and unit, the seed and run counts, and the failing seeds.
//
// --trace FILE measures the layers from outside instead.  For each of the
// first seeds it times api::run, calls the pipeline directly, and replays
// the pipeline phase by phase through the public calls of drr/, trees/ and
// rootgossip/ with the stream tags and global-clock offsets the pipelines
// use.  Each call is a span (name, start, end, parent, run); the spans are
// written to FILE at exit and summarised into per-layer metrics.  A replay
// whose counters or value differ from the report is a benchmark bug: the
// run exits 3.
//
// --setup-only stops after the warm-ups and reports setup_s alone, so a
// caller can take the median over several cold processes.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aggregate/drr_gossip.hpp"
#include "aggregate/sparse.hpp"
#include "api/registry.hpp"
#include "chord/chord.hpp"
#include "drr/drr.hpp"
#include "drr/local_drr.hpp"
#include "rootgossip/gossip_ave.hpp"
#include "rootgossip/gossip_max.hpp"
#include "rootgossip/ordered_key.hpp"
#include "support/rng.hpp"
#include "support/workload.hpp"
#include "trees/broadcast.hpp"
#include "trees/convergecast.hpp"

namespace drrg::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Workload {
  std::string_view name;
  std::string_view algorithm;  ///< registry name
  api::Aggregate aggregate;
  std::uint32_t n;
  double loss;
  double crash;
  std::uint32_t max_latency;  ///< call latency uniform in [0, max_latency] rounds
  double tolerance;           ///< largest admissible RunReport::rel_error
};

// Why each workload exists is in README.md.  Each tolerance is at least
// twice the largest error seen over ~2500 seeds (clean Ave 7e-8, faulty
// Ave 5e-3, chord Ave 8.5e-3); Max is exact.
constexpr Workload kWorkloads[] = {
    {"dense-ave-clean", "drr", api::Aggregate::kAve, 32768, 0.0, 0.0, 0, 1e-6},
    {"dense-ave-faulty", "drr", api::Aggregate::kAve, 32768, 0.1, 0.05, 0, 1e-2},
    {"dense-max-latency", "drr", api::Aggregate::kMax, 32768, 0.1, 0.05, 2, 0.0},
    {"chord-ave", "chord-drr", api::Aggregate::kAve, 4096, 0.0, 0.0, 0, 2e-2},
};

constexpr int kWarmupRuns = 3;
constexpr std::uint64_t kWarmupStream = 0x3a3a;  // warm-up seeds: disjoint from trial_seed
constexpr int kPasses = 4;
constexpr int kMinTimedSeeds = 100;  // run_ms_p90 needs ten samples beyond it
constexpr int kMaxTraceSeeds = 50;
constexpr int kMinTraceSeeds = 5;

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[nodiscard]] sim::FaultSchedule faults_of(const Workload& w) {
  sim::FaultSchedule f{w.loss, w.crash};
  if (w.max_latency > 0) {
    f.latency.kind = sim::LatencyModel::Kind::kUniform;
    f.latency.max_delay = w.max_latency;
  }
  return f;
}

[[nodiscard]] api::RunSpec spec_of(const Workload& w, std::uint64_t seed) {
  api::RunSpec spec;
  spec.n = w.n;
  spec.aggregate = w.aggregate;
  spec.seed = seed;
  spec.faults = faults_of(w);
  spec.values = workload::make_values(w.n, seed);
  spec.intra_threads = 1;
  return spec;
}

/// Linear interpolation between closest ranks; `v` must be non-empty.
[[nodiscard]] double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

[[nodiscard]] std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string_view unit;
};

/// Oracle bookkeeping over every checked run.
struct Tally {
  int runs = 0;
  std::vector<std::uint64_t> failed_seeds;
  std::vector<double> rel_errors;

  void check(const Workload& w, const api::RunReport& r) {
    ++runs;
    const double err = r.ok() ? r.rel_error() : INFINITY;
    rel_errors.push_back(err);
    if (!r.ok() || !r.consensus || !(err <= w.tolerance)) failed_seeds.push_back(r.seed);
  }
};

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  std::string_view name;
  int parent;  ///< index of the enclosing span, -1 at top level
  int run;
  std::int64_t start_ns;
  std::int64_t end_ns = 0;
  sim::Counters counters{};

  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int begin(std::string_view name, int parent, int run) {
    spans_.push_back(Span{name, parent, run, now_ns()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id, const sim::Counters& counters = {}) {
    spans_[id].end_ns = now_ns();
    spans_[id].counters = counters;
  }

  /// Times `body()` as one span; a result with per-phase counters gets
  /// them attached.
  template <class F>
  auto span(std::string_view name, int parent, int run, F&& body) {
    const int id = begin(name, parent, run);
    auto result = body();
    spans_[id].end_ns = now_ns();
    using R = decltype(result);
    if constexpr (requires(const R& x) { x.counters; }) spans_[id].counters = result.counters;
    return result;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"span\":" << i << ",\"parent\":" << s.parent << ",\"run\":" << s.run
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"sent\":" << s.counters.sent
          << ",\"delivered\":" << s.counters.delivered << ",\"lost\":" << s.counters.lost
          << ",\"rounds\":" << s.counters.rounds << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Phase-by-phase replays of aggregate/drr_gossip.cpp and aggregate/sparse.cpp.

struct Replay {
  PhaseMetrics phases;
  double value = 0.0;
  std::uint64_t probes = 0;  ///< DRR probes issued (dense Phase I only)
};

/// Algorithms 7 (max) and 8 (ave) on the complete graph with the default
/// DrrGossipConfig.
Replay replay_dense(Tracer& tr, int parent, int run, bool ave, std::uint32_t n,
                    std::span<const double> values, std::uint64_t seed,
                    const sim::Scenario& sc) {
  const DrrGossipConfig cfg;
  const RngFactory rngs{seed};
  // The pipelines' Phase III budget scale on the complete topology.
  const double scale = 1.0 + sc.faults.latency.mean();
  Replay out;
  std::uint32_t clock = sc.start_round;

  const DrrResult drr = tr.span("drr.phase1", parent, run,
                                [&] { return run_drr(n, rngs, sc, cfg.drr); });
  const Forest& forest = drr.forest;
  out.phases.drr = drr.counters;
  out.probes = drr.total_probes;
  clock += drr.rounds;

  const ConvergecastResult cc = tr.span("trees.convergecast", parent, run, [&] {
    return run_convergecast(forest, values, ave ? ConvergecastOp::kSum : ConvergecastOp::kMax,
                            rngs, sc.at_round(clock), cfg.convergecast);
  });
  out.phases.convergecast = cc.counters;
  clock += cc.rounds;

  std::vector<double> addr(n, 0.0);
  for (NodeId r : forest.roots()) addr[r] = static_cast<double>(r);
  BroadcastConfig addr_cfg = cfg.broadcast;
  addr_cfg.stream_tag = derive_seed(addr_cfg.stream_tag, 1);
  const BroadcastResult addr_bc = tr.span("trees.root_broadcast", parent, run, [&] {
    return run_broadcast(forest, addr, rngs, sc.at_round(clock), addr_cfg);
  });
  out.phases.root_broadcast = addr_bc.counters;
  clock += addr_bc.rounds;

  std::vector<double> root_value(n, 0.0);
  if (ave) {
    std::vector<std::uint64_t> size_keys(n, kKeyBottom);
    for (NodeId r : forest.roots())
      size_keys[r] = encode_size_id(static_cast<std::uint32_t>(cc.weight[r]), r);
    GossipMaxConfig gm_cfg = cfg.gossip_max;
    gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 4);
    gm_cfg.round_budget_scale *= scale;
    const GossipMaxResult election = tr.span("rootgossip.election", parent, run, [&] {
      return run_gossip_max(forest, size_keys, rngs, sc.at_round(clock), gm_cfg);
    });
    clock += election.rounds;

    std::vector<double> num0(n, 0.0);
    std::vector<double> den0(n, 0.0);
    for (NodeId r : forest.roots()) {
      num0[r] = cc.aggregate[r];
      den0[r] = cc.weight[r];
    }
    PushSumConfig ps_cfg = cfg.push_sum;
    ps_cfg.stream_tag = derive_seed(ps_cfg.stream_tag, 5);
    ps_cfg.round_budget_scale *= scale;
    const PushSumResult ps = tr.span("rootgossip.push_sum", parent, run, [&] {
      return run_root_push_sum(forest, num0, den0, rngs, sc.at_round(clock), ps_cfg);
    });
    clock += ps.rounds;
    out.phases.gossip = election.counters;
    out.phases.gossip += ps.counters;

    std::vector<std::uint64_t> spread_init(n, kKeyBottom);
    for (NodeId r : forest.roots())
      if (election.key[r] == size_keys[r] && ps.den[r] > 0.0)
        spread_init[r] = encode_ordered(ps.num[r] / ps.den[r]);
    GossipMaxConfig spread_cfg = cfg.gossip_max;
    spread_cfg.stream_tag = derive_seed(spread_cfg.stream_tag, 6);
    spread_cfg.round_budget_scale *= scale;
    const GossipMaxResult spread = tr.span("rootgossip.spread", parent, run, [&] {
      return run_gossip_max(forest, spread_init, rngs, sc.at_round(clock), spread_cfg);
    });
    clock += spread.rounds;
    out.phases.spread = spread.counters;
    for (NodeId r : forest.roots())
      root_value[r] = spread.key[r] == kKeyBottom ? 0.0 : decode_ordered(spread.key[r]);
  } else {
    std::vector<std::uint64_t> keys(n, kKeyBottom);
    for (NodeId r : forest.roots()) keys[r] = encode_ordered(cc.aggregate[r]);
    GossipMaxConfig gm_cfg = cfg.gossip_max;
    gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 3);
    gm_cfg.round_budget_scale *= scale;
    const GossipMaxResult gm = tr.span("rootgossip.gossip_max", parent, run, [&] {
      return run_gossip_max(forest, keys, rngs, sc.at_round(clock), gm_cfg);
    });
    clock += gm.rounds;
    out.phases.gossip = gm.counters;
    for (NodeId r : forest.roots()) root_value[r] = decode_ordered(gm.key[r]);
  }

  BroadcastConfig value_cfg = cfg.broadcast;
  value_cfg.stream_tag = derive_seed(value_cfg.stream_tag, 2);
  const BroadcastResult bc = tr.span("trees.value_broadcast", parent, run, [&] {
    return run_broadcast(forest, root_value, rngs, sc.at_round(clock), value_cfg);
  });
  out.phases.value_broadcast = bc.counters;
  out.value = root_value[forest.largest_tree_root()];
  return out;
}

/// The §4 Ave pipeline on a Chord overlay with the default
/// SparseGossipConfig.  Phase III routes hop by hop inside
/// aggregate/sparse.cpp and has no public entry point: its counters come
/// from `direct`, its time is the remainder of the pipeline span.
Replay replay_chord(Tracer& tr, int parent, int run, const Graph& links,
                    std::span<const double> values, std::uint64_t seed,
                    const sim::Scenario& sc, const AggregateOutcome& direct) {
  const SparseGossipConfig cfg;
  const RngFactory rngs{seed};
  const std::uint32_t n = links.size();
  Replay out;
  std::uint32_t clock = sc.start_round;

  const LocalDrrResult drr = tr.span("drr.phase1", parent, run, [&] {
    return run_local_drr(links, rngs, sc, cfg.local_drr);
  });
  const Forest& forest = drr.forest;
  out.phases.drr = drr.counters;
  clock += drr.rounds;

  const ConvergecastResult cc = tr.span("trees.convergecast", parent, run, [&] {
    return run_convergecast(forest, values, ConvergecastOp::kSum, rngs, sc.at_round(clock),
                            cfg.convergecast);
  });
  out.phases.convergecast = cc.counters;
  clock += cc.rounds;

  std::vector<double> addr(n, 0.0);
  for (NodeId r : forest.roots()) addr[r] = static_cast<double>(r);
  BroadcastConfig addr_cfg = cfg.broadcast;
  addr_cfg.simultaneous_children = true;
  addr_cfg.stream_tag = derive_seed(addr_cfg.stream_tag, 1);
  const BroadcastResult addr_bc = tr.span("trees.root_broadcast", parent, run, [&] {
    return run_broadcast(forest, addr, rngs, sc.at_round(clock), addr_cfg);
  });
  out.phases.root_broadcast = addr_bc.counters;
  clock += addr_bc.rounds;

  out.phases.gossip = direct.metrics.gossip;
  out.phases.spread = direct.metrics.spread;
  clock += direct.metrics.gossip.rounds + direct.metrics.spread.rounds;

  // A root's broadcast payload is its Phase III value, which it keeps.
  std::vector<double> root_value(n, 0.0);
  for (NodeId r : forest.roots()) root_value[r] = direct.per_node[r];
  BroadcastConfig value_cfg = cfg.broadcast;
  value_cfg.simultaneous_children = true;
  value_cfg.stream_tag = derive_seed(value_cfg.stream_tag, 2);
  const BroadcastResult bc = tr.span("trees.value_broadcast", parent, run, [&] {
    return run_broadcast(forest, root_value, rngs, sc.at_round(clock), value_cfg);
  });
  out.phases.value_broadcast = bc.counters;
  out.value = direct.value;
  return out;
}

// ---------------------------------------------------------------------------
// Faithfulness gate.

[[nodiscard]] bool same(const sim::Counters& a, const sim::Counters& b) {
  return a.sent == b.sent && a.delivered == b.delivered && a.lost == b.lost &&
         a.rounds == b.rounds;
}

/// Phase-by-phase comparison; returns the first mismatching phase, or "".
[[nodiscard]] std::string_view phase_mismatch(const PhaseMetrics& a, const PhaseMetrics& b) {
  if (!same(a.drr, b.drr)) return "drr";
  if (!same(a.convergecast, b.convergecast)) return "convergecast";
  if (!same(a.root_broadcast, b.root_broadcast)) return "root_broadcast";
  if (!same(a.gossip, b.gossip)) return "gossip";
  if (!same(a.spread, b.spread)) return "spread";
  if (!same(a.value_broadcast, b.value_broadcast)) return "value_broadcast";
  return "";
}

// ---------------------------------------------------------------------------
// The two modes.

/// Returns the number of seeds timed.  The seeds that fit in the first
/// kPasses-th of the budget run kPasses times, in passes a few seconds
/// apart, and each keeps its fastest time: on a shared host interference
/// comes in bursts of seconds, and the fastest of runs that far apart is
/// the run's own cost.  The passes cannot hit the Chord overlay memo,
/// which keeps only the previous seed's overlay.
int timed_runs(const Workload& w, std::uint64_t seed, double seconds, Tally& tally,
               std::vector<Metric>& metrics) {
  auto timed_run = [&](int i, double& ms) {
    const api::RunSpec spec = spec_of(w, api::trial_seed(seed, i));
    const auto t0 = Clock::now();
    api::RunReport r = api::run(w.algorithm, spec);
    ms = ms_between(t0, Clock::now());
    tally.check(w, r);
    return r;
  };
  std::vector<double> run_ms;
  double sent = 0.0;
  double rounds = 0.0;
  const auto first_pass_end = Clock::now() + std::chrono::duration<double>(seconds / kPasses);
  for (int i = 0; i < kMinTimedSeeds || Clock::now() < first_pass_end; ++i) {
    const api::RunReport r = timed_run(i, run_ms.emplace_back());
    sent += static_cast<double>(r.cost.sent);
    rounds += r.rounds;
  }
  const int seeds = static_cast<int>(run_ms.size());
  for (int pass = 1; pass < kPasses; ++pass) {
    for (int i = 0; i < seeds; ++i) {
      double ms = 0.0;
      (void)timed_run(i, ms);
      run_ms[i] = std::min(run_ms[i], ms);
    }
  }
  double wall_ms = 0.0;
  for (const double ms : run_ms) wall_ms += ms;
  metrics.push_back({"run_ms_p50", percentile(run_ms, 0.5), "ms"});
  metrics.push_back({"run_ms_p90", percentile(run_ms, 0.9), "ms"});
  metrics.push_back({"sim_msgs_per_s", sent / (wall_ms / 1e3) / 1e6, "Mmsg/s"});
  metrics.push_back({"rounds_mean", rounds / seeds, "rounds"});
  metrics.push_back({"msgs_per_node", sent / seeds / w.n, "msgs"});
  return seeds;
}

/// Returns the number of seeds traced, or 0 when a replay or the direct call
/// disagrees with api::run.
int traced_runs(const Workload& w, std::uint64_t seed, double seconds,
                 const std::string& trace_path, Clock::time_point origin, Tally& tally,
                 std::vector<Metric>& metrics) {
  const bool chord = w.algorithm == "chord-drr";
  const bool ave = w.aggregate == api::Aggregate::kAve;

  Tracer tr{origin};
  std::vector<double> traced_ms;
  std::vector<double> plain_ms;
  PhaseMetrics sums;
  double trees = 0.0, max_tree = 0.0, probes = 0.0;
  bool faithful = true;
  auto mismatch = [&](std::uint64_t s, std::string_view what) {
    std::fprintf(stderr, "faithfulness: seed %llu: %.*s differs from api::run\n",
                 static_cast<unsigned long long>(s), static_cast<int>(what.size()),
                 what.data());
    faithful = false;
  };

  auto trace_seed = [&](int i) {
    const api::RunSpec spec = spec_of(w, api::trial_seed(seed, i));
    // The scenarios api::run builds for these algorithms.
    sim::Scenario sc{chord ? sim::Topology::complete() : sim::Topology::complete_of(w.n),
                     spec.faults};
    sc.intra_threads = 1;

    api::RunReport r;
    auto call_api = [&] {
      const int id = tr.begin("api.run", -1, i);
      r = api::run(w.algorithm, spec);
      tr.end(id, r.cost);
      traced_ms.push_back(tr.spans()[id].ms());
    };
    AggregateOutcome direct;
    std::optional<ChordOverlay> overlay;
    std::optional<Graph> links;
    auto call_direct = [&] {
      const int pipe = tr.begin("aggregate.pipeline", -1, i);
      if (chord) {
        const int build = tr.begin("chord.overlay_build", pipe, i);
        overlay.emplace(w.n, spec.seed);
        links.emplace(overlay_graph(*overlay));
        tr.end(build);
        direct = tr.span("aggregate.sparse_drr_gossip_ave", pipe, i, [&] {
          return sparse_drr_gossip_ave(*overlay, *links, spec.values, spec.seed, sc);
        });
      } else {
        direct = tr.span(ave ? "aggregate.drr_gossip_ave" : "aggregate.drr_gossip_max",
                         pipe, i, [&] {
                           return ave ? drr_gossip_ave(w.n, spec.values, spec.seed, sc)
                                      : drr_gossip_max(w.n, spec.values, spec.seed, sc);
                         });
      }
      tr.end(pipe, direct.metrics.total());
    };
    // Whichever of the two runs second finds the seed's inputs in cache;
    // alternating the order keeps that out of api.overhead.
    if (i % 2 == 0) {
      call_api();
      call_direct();
    } else {
      call_direct();
      call_api();
    }
    tally.check(w, r);
    if (!r.ok()) {
      mismatch(spec.seed, "api::run error");
      return;
    }

    const int rep = tr.begin("replay", -1, i);
    const Replay replay =
        chord ? replay_chord(tr, rep, i, *links, spec.values, spec.seed, sc, direct)
              : replay_dense(tr, rep, i, ave, w.n, spec.values, spec.seed, sc);
    tr.end(rep, replay.phases.total());

    if (direct.value != r.value || direct.consensus != r.consensus)
      mismatch(spec.seed, "direct pipeline value");
    if (const auto p = phase_mismatch(direct.metrics, r.phases); !p.empty())
      mismatch(spec.seed, p);
    if (replay.value != r.value) mismatch(spec.seed, "replayed value");
    if (const auto p = phase_mismatch(replay.phases, r.phases); !p.empty())
      mismatch(spec.seed, p);

    sums.drr += r.phases.drr;
    sums.convergecast += r.phases.convergecast;
    sums.root_broadcast += r.phases.root_broadcast;
    sums.gossip += r.phases.gossip;
    sums.spread += r.phases.spread;
    sums.value_broadcast += r.phases.value_broadcast;
    trees += r.forest.num_trees;
    max_tree += r.forest.max_tree_size;
    probes += static_cast<double>(replay.probes);
  };
  // The tracing-overhead ratio compares traced api::run calls with plain
  // ones.  The plain run of seed i-1 follows the traced seed i, so drift on
  // a shared host hits both alike, and the Chord overlay memo (last seed
  // only) never serves a repeat.
  auto plain_run = [&](int i) {
    const api::RunSpec spec = spec_of(w, api::trial_seed(seed, i));
    const auto t0 = Clock::now();
    const api::RunReport r = api::run(w.algorithm, spec);
    plain_ms.push_back(ms_between(t0, Clock::now()));
    tally.check(w, r);
  };
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  int seeds = 0;
  for (; seeds < kMaxTraceSeeds && (seeds < kMinTraceSeeds || Clock::now() < deadline);
       ++seeds) {
    trace_seed(seeds);
    if (seeds > 0) plain_run(seeds - 1);
  }
  plain_run(seeds - 1);
  if (!tr.write(trace_path)) {
    std::fprintf(stderr, "drrg_bench: cannot write %s\n", trace_path.c_str());
    return 0;
  }
  if (!faithful) return 0;

  // Per-run means of span time by name, over the traced seeds.
  const auto runs = static_cast<double>(seeds);
  std::map<std::string_view, double> span_ms;
  for (const Span& s : tr.spans()) span_ms[s.name] += s.ms() / runs;
  auto ms = [&](std::string_view name) {
    const auto it = span_ms.find(name);
    return it == span_ms.end() ? 0.0 : it->second;
  };
  const double api_ms = ms("api.run");
  const double pipeline_ms = ms("aggregate.pipeline");
  const double phase3_ms =
      chord ? ms("aggregate.sparse_drr_gossip_ave") - ms("drr.phase1") -
                  ms("trees.convergecast") - ms("trees.root_broadcast") -
                  ms("trees.value_broadcast")
            : ms("rootgossip.election") + ms("rootgossip.push_sum") +
                  ms("rootgossip.spread") + ms("rootgossip.gossip_max");

  metrics.push_back({"api.run.ms", api_ms, "ms"});
  metrics.push_back({"api.overhead.ms", api_ms - pipeline_ms, "ms"});
  metrics.push_back({"api.overhead.share", (api_ms - pipeline_ms) / api_ms, "ratio"});
  metrics.push_back(
      {"trace.overhead_ratio", percentile(traced_ms, 0.5) / percentile(plain_ms, 0.5),
       "ratio"});
  auto phase = [&](const std::string& name, double phase_ms, sim::Counters c) {
    metrics.push_back({name + ".ms", phase_ms, "ms"});
    metrics.push_back({name + ".share", phase_ms / api_ms, "ratio"});
    metrics.push_back({name + ".msgs", static_cast<double>(c.sent) / runs, "msgs"});
    metrics.push_back({name + ".msgs_per_s",
                       static_cast<double>(c.sent) / (phase_ms * runs / 1e3) / 1e6,
                       "Mmsg/s"});
    metrics.push_back({name + ".rounds", c.rounds / runs, "rounds"});
    metrics.push_back({name + ".delivered_share",
                       static_cast<double>(c.delivered) / static_cast<double>(c.sent),
                       "ratio"});
  };
  sim::Counters phase3 = sums.gossip;
  phase3 += sums.spread;
  phase("drr.phase1", ms("drr.phase1"), sums.drr);
  phase("trees.convergecast", ms("trees.convergecast"), sums.convergecast);
  phase("trees.root_broadcast", ms("trees.root_broadcast"), sums.root_broadcast);
  phase("rootgossip.phase3", phase3_ms, phase3);
  phase("trees.value_broadcast", ms("trees.value_broadcast"), sums.value_broadcast);
  metrics.push_back({"drr.phase1.trees_x_logn_over_n",
                     trees / runs * std::log2(static_cast<double>(w.n)) / w.n, "ratio"});
  metrics.push_back({"drr.phase1.max_tree_size", max_tree / runs, "nodes"});

  // Layers only some pipelines have: reported where they run, and left
  // out of BENCHMARK.json, whose per-layer metrics exist on every workload.
  if (chord) {
    metrics.push_back({"chord.overlay_build.ms", ms("chord.overlay_build"), "ms"});
    metrics.push_back({"chord.overlay_build.share", ms("chord.overlay_build") / api_ms,
                       "ratio"});
  } else {
    metrics.push_back({"drr.phase1.probes_per_node", probes / runs / w.n, "probes"});
    for (const std::string_view sub :
         {"rootgossip.election", "rootgossip.push_sum", "rootgossip.spread",
          "rootgossip.gossip_max"}) {
      if (!span_ms.contains(sub)) continue;
      metrics.push_back({std::string{sub} + ".ms", ms(sub), "ms"});
      metrics.push_back({std::string{sub} + ".share", ms(sub) / api_ms, "ratio"});
    }
  }
  return seeds;
}

[[nodiscard]] double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// `seeds` is the sample count of the percentiles; `runs` counts every
/// checked api::run.
void print_record(const Workload& w, std::uint64_t seed, bool traced, int seeds,
                  const Tally& tally, const std::vector<Metric>& metrics) {
  std::string line = "{\"workload\":\"" + std::string{w.name} +
                     "\",\"seed\":" + std::to_string(seed) +
                     ",\"trace\":" + (traced ? "true" : "false") +
                     ",\"seeds\":" + std::to_string(seeds) +
                     ",\"runs\":" + std::to_string(tally.runs) +
                     ",\"failed\":" + std::to_string(tally.failed_seeds.size()) +
                     ",\"failed_seeds\":[";
  for (std::size_t i = 0; i < tally.failed_seeds.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(tally.failed_seeds[i]);
  }
  line += "],\"tolerance\":" + json_number(w.tolerance) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) line += ',';
    line += '"';
    line += m.name;
    line += "\":{\"value\":" + json_number(m.value) + ",\"unit\":\"";
    line += m.unit;
    line += "\"}";
  }
  line += "}}";
  std::puts(line.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed S [--seconds T] [--trace FILE] "
               "[--setup-only]\nworkloads:",
               argv0);
  for (const Workload& w : kWorkloads)
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  std::fputc('\n', stderr);
  return 2;
}

}  // namespace
}  // namespace drrg::bench

int main(int argc, char** argv) {
  using namespace drrg;
  using namespace drrg::bench;
  const auto origin = Clock::now();

  std::string_view name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 25.0;
  std::string trace_path;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != argv[i] && *end == '\0';
      if (!have_seed) return usage(argv[0]);
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      seconds = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || !(seconds > 0.0)) return usage(argv[0]);
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  const auto* w = std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                               [&](const Workload& x) { return x.name == name; });
  if (w == std::end(kWorkloads) || !have_seed) return usage(argv[0]);

  // Set-up: warm-up inputs and runs on seeds outside the measured set.
  for (int k = 0; k < kWarmupRuns; ++k) {
    const api::RunSpec spec = spec_of(*w, derive_seed(seed, kWarmupStream, k));
    const api::RunReport r = api::run(w->algorithm, spec);
    if (!r.ok()) {
      std::fprintf(stderr, "drrg_bench: warm-up run failed: %s\n", r.error.c_str());
      return 1;
    }
  }
  const double setup_s = ms_between(origin, Clock::now()) / 1e3;

  Tally tally;
  std::vector<Metric> metrics;
  int seeds = 0;
  if (!setup_only) {
    seeds = trace_path.empty()
                ? timed_runs(*w, seed, seconds, tally, metrics)
                : traced_runs(*w, seed, seconds, trace_path, origin, tally, metrics);
    if (seeds == 0) return 3;
  }
  metrics.push_back({"setup_s", setup_s, "s"});
  if (!setup_only) {
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    metrics.push_back({"rel_error_p90", percentile(tally.rel_errors, 0.9), "ratio"});
    metrics.push_back({"rel_error_max", percentile(tally.rel_errors, 1.0), "ratio"});
    metrics.push_back({"failed_share",
                       static_cast<double>(tally.failed_seeds.size()) / tally.runs,
                       "ratio"});
  }
  print_record(*w, seed, !trace_path.empty(), seeds, tally, metrics);
  return 0;
}
