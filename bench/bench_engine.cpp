// Experiment E -- engine micro-benchmarks for the perf trajectory.
//
// Unlike the paper-reproduction benches (whose counters are the claims),
// these cases measure the *simulator itself*: wall-clock throughput of the
// hot path in rounds/sec and messages/sec per topology, and heap
// allocations per run (the pooled-queue engine should hold this constant
// in rounds: steady-state rounds allocate nothing).  Three cases run the
// dense pipeline and the two routed ones at the paper's fault setting.
// One more case times the per-seed Chord substrate build the routed
// pipeline starts from.
//
// tools/bench_baseline.sh runs these alongside the pinned CLI sweep and
// folds the counters into BENCH_engine.json, the machine-readable perf
// trajectory that future PRs diff against.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "aggregate/sparse.hpp"
#include "api/registry.hpp"
#include "bench_common.hpp"
#include "chord/chord.hpp"
#include "support/alloc_counter.hpp"

namespace drrg {
namespace {

/// One engine case: run (algorithm, ave) once per iteration on the given
/// topology and report simulated-rounds/sec, messages/sec and the heap
/// allocation count of a single run.
void engine_case(benchmark::State& state, const std::string& algorithm,
                 sim::TopologyKind kind,
                 api::Pipeline pipeline = api::Pipeline::kDense,
                 sim::FaultSchedule faults = {}) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  api::RunSpec spec;
  spec.n = n;
  spec.aggregate = api::Aggregate::kAve;
  spec.seed = 1000;
  spec.topology.kind = kind;
  spec.pipeline = pipeline;
  spec.faults = std::move(faults);

  // One untimed warmup pays the one-time costs (the memoised topology
  // build in make_scenario) that a single-iteration benchmark would
  // otherwise report as the steady state -- a phantom 28x allocation
  // "regression" in the committed trajectory; the min across the timed
  // iterations guards the same way when the warmup cache is evicted by
  // an interleaved case.
  {
    const api::RunReport warm = api::run(algorithm, spec);
    if (!warm.ok()) {
      state.SkipWithError(warm.error.c_str());
      return;
    }
  }
  double rounds = 0.0;
  double msgs = 0.0;
  std::uint64_t allocs = std::numeric_limits<std::uint64_t>::max();
  for (auto _ : state) {
    const std::uint64_t a0 = support::alloc_count();
    const api::RunReport r = api::run(algorithm, spec);
    allocs = std::min(allocs, support::alloc_count() - a0);
    if (!r.ok()) {
      state.SkipWithError(r.error.c_str());
      break;  // SkipWithError requires leaving the KeepRunning loop
    }
    rounds += r.rounds;
    msgs += static_cast<double>(r.cost.sent);
  }
  if (allocs == std::numeric_limits<std::uint64_t>::max()) allocs = 0;
  state.counters["rounds_per_sec"] =
      benchmark::Counter(rounds, benchmark::Counter::kIsRate);
  state.counters["msgs_per_sec"] = benchmark::Counter(msgs, benchmark::Counter::kIsRate);
  state.counters["allocs_per_run"] = static_cast<double>(allocs);
  state.counters["msgs"] = msgs / static_cast<double>(std::max<std::size_t>(
                                      1, state.iterations()));
}

void BM_EngineDrrComplete(benchmark::State& state) {
  engine_case(state, "drr", sim::TopologyKind::kComplete);
}
BENCHMARK(BM_EngineDrrComplete)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

// The same pipeline at the paper's fault setting: each call lost with
// probability 0.1, 5% of the nodes crashed from the start.
void BM_EngineDrrFaulty(benchmark::State& state) {
  engine_case(state, "drr", sim::TopologyKind::kComplete, api::Pipeline::kDense,
              sim::FaultSchedule{0.1, 0.05});
}
BENCHMARK(BM_EngineDrrFaulty)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

void BM_EngineDrrGrid(benchmark::State& state) {
  engine_case(state, "drr", sim::TopologyKind::kGrid2d);
}
BENCHMARK(BM_EngineDrrGrid)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

void BM_EngineDrrChordRing(benchmark::State& state) {
  engine_case(state, "drr", sim::TopologyKind::kChordRing);
}
BENCHMARK(BM_EngineDrrChordRing)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

void BM_EngineUniformComplete(benchmark::State& state) {
  engine_case(state, "uniform", sim::TopologyKind::kComplete);
}
BENCHMARK(BM_EngineUniformComplete)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

// The sparse pipeline's engine bill: every logical G~ send expands into
// hop-by-hop envelopes, so these cases exercise the forwarding-heavy
// delivery path (queue churn dominated by in-flight routed messages).
void BM_EngineChordDrr(benchmark::State& state) {
  engine_case(state, "chord-drr", sim::TopologyKind::kComplete);
}
BENCHMARK(BM_EngineChordDrr)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

void BM_EngineDrrSparseGrid(benchmark::State& state) {
  engine_case(state, "drr", sim::TopologyKind::kGrid2d, api::Pipeline::kSparse);
}
BENCHMARK(BM_EngineDrrSparseGrid)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

// Their faulty twins, at BM_EngineDrrFaulty's setting (loss 0.1, crash
// 0.05): Local-DRR and the tree phases take the flat executors, and the
// routed Phase III stays on sim::Network.
void BM_EngineChordDrrFaulty(benchmark::State& state) {
  engine_case(state, "chord-drr", sim::TopologyKind::kComplete, api::Pipeline::kDense,
              sim::FaultSchedule{0.1, 0.05});
}
BENCHMARK(BM_EngineChordDrrFaulty)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

void BM_EngineDrrSparseGridFaulty(benchmark::State& state) {
  engine_case(state, "drr", sim::TopologyKind::kGrid2d, api::Pipeline::kSparse,
              sim::FaultSchedule{0.1, 0.05});
}
BENCHMARK(BM_EngineDrrSparseGridFaulty)->RangeMultiplier(4)->Range(1 << 10, 1 << 14);

// The Chord substrate a sweep over seeds builds once per trial: the
// overlay (ids, ring index, finger table) plus its link graph.  The
// chord-drr cases above reuse one memoised overlay at a fixed seed, so
// they never pay this; here every iteration builds for a fresh seed.  The
// reported time is one build; allocs_per_run is one build's allocation
// count, which must not grow with n.
void BM_ChordSubstrateBuild(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 1;
  std::uint64_t allocs = std::numeric_limits<std::uint64_t>::max();
  for (auto _ : state) {
    const std::uint64_t a0 = support::alloc_count();
    const ChordOverlay chord{n, seed++};
    const Graph links = overlay_graph(chord);
    allocs = std::min(allocs, support::alloc_count() - a0);
    benchmark::DoNotOptimize(links.edge_count());
  }
  state.counters["allocs_per_run"] = static_cast<double>(allocs);
}
BENCHMARK(BM_ChordSubstrateBuild)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 14)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace drrg

BENCHMARK_MAIN();
