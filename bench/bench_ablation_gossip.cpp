// Experiment EA2 -- ablation of the Phase III gossip schedule.
//
// The paper schedules the gossip procedure for 8 log n/(1-rho) rounds and
// the sampling procedure for (1/c) log n rounds (Theorems 5/6).  This
// ablation sweeps the two multipliers and reports where consensus starts
// to fail and what each extra scheduled round costs -- quantifying how
// much slack the defaults (4x / 2x) carry.
//
// Two sweeps at n = 4096, delta = 1/8 (the model's loss ceiling):
//   * gossip multiplier with sampling fixed at 2x;
//   * sampling multiplier with gossip fixed at 4x.
// Columns: consensus_rate (across seeds), frac_after_gossip (Theorem 5's
// observable), msgs_per_n.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "drr/drr.hpp"
#include "rootgossip/gossip_max.hpp"
#include "rootgossip/ordered_key.hpp"
#include "support/stats.hpp"

namespace drrg {
namespace {

constexpr int kTrials = 10;
constexpr std::uint32_t kN = 4096;
constexpr double kDelta = 0.125;

struct CaseResult {
  double consensus_rate = 0.0;
  double frac_after_gossip = 0.0;
  double msgs_per_n = 0.0;
};

CaseResult run_case(double gossip_mult, double sampling_mult) {
  RunningStat frac, msgs;
  int consensus = 0;
  for (std::uint64_t seed : bench::trial_seeds(kTrials)) {
    RngFactory rngs{seed};
    const DrrResult drr = run_drr(kN, rngs, sim::FaultSchedule{kDelta, 0.0});
    const auto values = bench::make_values(kN, seed);
    std::vector<std::uint64_t> keys(kN, kKeyBottom);
    std::uint64_t top = kKeyBottom;
    for (NodeId r : drr.forest.roots()) {
      keys[r] = encode_ordered(values[r]);
      top = std::max(top, keys[r]);
    }
    GossipMaxConfig cfg;
    cfg.gossip_multiplier = gossip_mult;
    cfg.sampling_multiplier = sampling_mult;
    const auto gm = run_gossip_max(drr.forest, keys, rngs, sim::FaultSchedule{kDelta, 0.0}, cfg);
    frac.add(fraction_of_roots_with_key(drr.forest, gm.key_after_gossip, top));
    consensus += fraction_of_roots_with_key(drr.forest, gm.key, top) == 1.0 ? 1 : 0;
    msgs.add(static_cast<double>(gm.counters.sent));
  }
  return {static_cast<double>(consensus) / kTrials, frac.mean(), msgs.mean() / kN};
}

// Arg: gossip multiplier in tenths (sampling fixed at 2x).
void BM_GossipMultiplier(benchmark::State& state) {
  const double mult = static_cast<double>(state.range(0)) / 10.0;
  CaseResult r;
  for (auto _ : state) r = run_case(mult, 2.0);
  state.counters["gossip_mult"] = mult;
  state.counters["consensus_rate"] = r.consensus_rate;
  state.counters["frac_after_gossip"] = r.frac_after_gossip;
  state.counters["msgs_per_n"] = r.msgs_per_n;
}
BENCHMARK(BM_GossipMultiplier)
    ->Arg(5)    // 0.5x: far too few rounds
    ->Arg(10)   // 1x
    ->Arg(20)   // 2x
    ->Arg(40)   // 4x: the library default
    ->Arg(80)   // 8x: the paper's analysis constant
    ->Iterations(1);

// Arg: sampling multiplier in tenths (gossip fixed at 4x).
void BM_SamplingMultiplier(benchmark::State& state) {
  const double mult = static_cast<double>(state.range(0)) / 10.0;
  CaseResult r;
  for (auto _ : state) r = run_case(4.0, mult);
  state.counters["sampling_mult"] = mult;
  state.counters["consensus_rate"] = r.consensus_rate;
  state.counters["frac_after_gossip"] = r.frac_after_gossip;
  state.counters["msgs_per_n"] = r.msgs_per_n;
}
BENCHMARK(BM_SamplingMultiplier)->Arg(0)->Arg(5)->Arg(10)->Arg(20)->Arg(40)->Iterations(1);

}  // namespace
}  // namespace drrg

BENCHMARK_MAIN();
