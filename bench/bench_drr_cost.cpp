// Experiment E4 -- Theorem 4: the DRR algorithm (Phase I alone) costs
// O(n log log n) messages whp and O(log n) rounds.
//
// Columns: probes_per_node (the O(log d) = O(log log n) expectation from
// the Theorem 4 proof), msgs_per_nloglog (flat => O(n log log n)),
// rounds_per_log (flat => O(log n)), and the same quantities under the
// model's maximum loss delta = 1/8.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "drr/drr.hpp"
#include "support/mathutil.hpp"
#include "support/stats.hpp"

namespace drrg {
namespace {

constexpr int kTrials = 5;

void run_case(benchmark::State& state, double delta) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RunningStat msgs, rounds, probes;
  for (auto _ : state) {
    for (std::uint64_t seed : bench::trial_seeds(kTrials)) {
      RngFactory rngs{seed};
      const DrrResult r = run_drr(n, rngs, sim::FaultSchedule{delta, 0.0});
      msgs.add(static_cast<double>(r.counters.sent));
      rounds.add(r.rounds);
      probes.add(static_cast<double>(r.total_probes) / n);
    }
  }
  state.counters["msgs"] = msgs.mean();
  state.counters["msgs_per_n"] = msgs.mean() / n;
  state.counters["msgs_per_nloglog"] = msgs.mean() / (n * loglog2_clamped(n));
  state.counters["probes_per_node"] = probes.mean();
  state.counters["loglog2_n"] = loglog2_clamped(n);
  state.counters["rounds"] = rounds.mean();
  state.counters["rounds_per_log"] = rounds.mean() / log2_clamped(n);
}

void BM_DrrCost(benchmark::State& state) { run_case(state, 0.0); }
BENCHMARK(BM_DrrCost)->RangeMultiplier(2)->Range(1 << 8, 1 << 17)->Iterations(1);

void BM_DrrCostLossy(benchmark::State& state) { run_case(state, 0.125); }
BENCHMARK(BM_DrrCostLossy)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)->Iterations(1);

}  // namespace
}  // namespace drrg

BENCHMARK_MAIN();
