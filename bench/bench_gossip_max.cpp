// Experiments E5/E6 -- Theorems 5 and 6 (Phase III, Gossip-max):
//
//   Theorem 5: after the *gossip procedure*, at least a constant fraction
//   of the roots holds the global Max whp -> column frac_after_gossip
//   (mean and min over seeds; must stay bounded away from 0).
//
//   Theorem 6: after the *sampling procedure*, ALL roots know Max whp ->
//   column consensus_rate (fraction of seeds reaching full consensus).
//
//   Phase III cost: O(n) messages -> msgs_per_n flat.
//
// Both are exercised at delta = 0 and at the model's max loss 1/8.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "drr/drr.hpp"
#include "rootgossip/gossip_max.hpp"
#include "rootgossip/ordered_key.hpp"
#include "support/mathutil.hpp"
#include "support/stats.hpp"

namespace drrg {
namespace {

constexpr int kTrials = 10;

void run_case(benchmark::State& state, double delta) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RunningStat frac_gossip, msgs, rounds;
  int consensus = 0;
  for (auto _ : state) {
    for (std::uint64_t seed : bench::trial_seeds(kTrials)) {
      RngFactory rngs{seed};
      const DrrResult drr = run_drr(n, rngs, sim::FaultSchedule{delta, 0.0});
      const auto values = bench::make_values(n, seed);
      std::vector<std::uint64_t> keys(n, kKeyBottom);
      std::uint64_t top = kKeyBottom;
      for (NodeId r : drr.forest.roots()) {
        keys[r] = encode_ordered(values[r]);
        top = std::max(top, keys[r]);
      }
      const auto gm =
          run_gossip_max(drr.forest, keys, rngs, sim::FaultSchedule{delta, 0.0});
      frac_gossip.add(fraction_of_roots_with_key(drr.forest, gm.key_after_gossip, top));
      const double after =
          fraction_of_roots_with_key(drr.forest, gm.key, top);
      consensus += after == 1.0 ? 1 : 0;
      msgs.add(static_cast<double>(gm.counters.sent));
      rounds.add(gm.rounds);
    }
  }
  state.counters["frac_after_gossip_mean"] = frac_gossip.mean();
  state.counters["frac_after_gossip_min"] = frac_gossip.min();
  state.counters["consensus_rate"] = static_cast<double>(consensus) / kTrials;
  state.counters["msgs_per_n"] = msgs.mean() / n;
  state.counters["rounds"] = rounds.mean();
  state.counters["rounds_per_log"] = rounds.mean() / log2_clamped(n);
}

void BM_GossipMax(benchmark::State& state) { run_case(state, 0.0); }
BENCHMARK(BM_GossipMax)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)->Iterations(1);

void BM_GossipMaxLossy(benchmark::State& state) { run_case(state, 0.125); }
BENCHMARK(BM_GossipMaxLossy)->RangeMultiplier(4)->Range(1 << 8, 1 << 16)->Iterations(1);

// Data-spread (Algorithm 5) coverage: one root's value reaches all roots.
void BM_DataSpread(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  int full = 0;
  RunningStat msgs;
  for (auto _ : state) {
    for (std::uint64_t seed : bench::trial_seeds(kTrials)) {
      RngFactory rngs{seed};
      const DrrResult drr = run_drr(n, rngs);
      const std::uint64_t key = encode_ordered(42.0);
      const auto r =
          run_data_spread(drr.forest, drr.forest.largest_tree_root(), key, rngs);
      full += fraction_of_roots_with_key(drr.forest, r.key, key) == 1.0 ? 1 : 0;
      msgs.add(static_cast<double>(r.counters.sent));
    }
  }
  state.counters["coverage_rate"] = static_cast<double>(full) / kTrials;
  state.counters["msgs_per_n"] = msgs.mean() / n;
}
BENCHMARK(BM_DataSpread)->RangeMultiplier(8)->Range(1 << 9, 1 << 15)->Iterations(1);

}  // namespace
}  // namespace drrg

BENCHMARK_MAIN();
