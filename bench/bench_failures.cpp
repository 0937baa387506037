// Experiment EF -- the §2 failure model:
//
//   "some fraction of nodes may crash initially" and "communication can
//   fail with a certain probability delta", with 1/log n < delta < 1/8.
//
// Sweeps delta and the crash fraction and reports, for DRR-gossip-max and
// DRR-gossip-ave (run through the drrg::api facade, which also supplies
// the per-trial ground truth over the surviving nodes):
//   * correctness (Max exact over survivors; Ave relative error),
//   * consensus rate across seeds,
//   * cost inflation (messages normalised by n).

#include <benchmark/benchmark.h>

#include "api/registry.hpp"
#include "bench_common.hpp"
#include "support/stats.hpp"

namespace drrg {
namespace {

constexpr int kTrials = 5;
constexpr std::uint32_t kN = 2048;

/// Facade spec shared by the failure sweeps.
api::RunSpec failure_spec(api::Aggregate agg, std::uint64_t seed, double loss,
                          double crash, bool robust_push_sum = false) {
  api::RunSpec spec;
  spec.n = kN;
  spec.aggregate = agg;
  spec.seed = seed;
  spec.faults = sim::FaultSchedule{loss, crash};
  if (robust_push_sum) {
    DrrGossipConfig cfg;
    cfg.push_sum.rounds_multiplier = 8.0;
    spec.config = cfg;
  }
  return spec;
}

// Arg encoding: delta in per-mille.
void BM_MaxUnderLoss(benchmark::State& state) {
  const double delta = static_cast<double>(state.range(0)) / 1000.0;
  int exact = 0, consensus = 0;
  RunningStat msgs;
  for (auto _ : state) {
    for (std::uint64_t seed : bench::trial_seeds(kTrials)) {
      const auto r = api::run("drr", failure_spec(api::Aggregate::kMax, seed, delta, 0.0));
      exact += r.value == r.truth ? 1 : 0;
      consensus += r.consensus ? 1 : 0;
      msgs.add(static_cast<double>(r.cost.sent));
    }
  }
  state.counters["delta"] = delta;
  state.counters["exact_rate"] = static_cast<double>(exact) / kTrials;
  state.counters["consensus_rate"] = static_cast<double>(consensus) / kTrials;
  state.counters["msgs_per_n"] = msgs.mean() / kN;
}
BENCHMARK(BM_MaxUnderLoss)->Arg(0)->Arg(50)->Arg(91)->Arg(125)->Arg(250)->Iterations(1);
// 91/1000 ~ 1/log2(n) (the model's lower end), 125/1000 = 1/8 (upper end).

void BM_AveUnderLoss(benchmark::State& state) {
  const double delta = static_cast<double>(state.range(0)) / 1000.0;
  RunningStat rel_err, msgs;
  int consensus = 0;
  for (auto _ : state) {
    for (std::uint64_t seed : bench::trial_seeds(kTrials)) {
      const auto r = api::run(
          "drr", failure_spec(api::Aggregate::kAve, seed, delta, 0.0, /*robust=*/true));
      rel_err.add(r.rel_error());
      consensus += r.consensus ? 1 : 0;
      msgs.add(static_cast<double>(r.cost.sent));
    }
  }
  state.counters["delta"] = delta;
  state.counters["rel_err_mean"] = rel_err.mean();
  state.counters["rel_err_max"] = rel_err.max();
  state.counters["consensus_rate"] = static_cast<double>(consensus) / kTrials;
  state.counters["msgs_per_n"] = msgs.mean() / kN;
}
BENCHMARK(BM_AveUnderLoss)->Arg(0)->Arg(50)->Arg(91)->Arg(125)->Arg(250)->Iterations(1);

// Arg encoding: crash fraction in percent.
void BM_MaxUnderCrashes(benchmark::State& state) {
  const double crash = static_cast<double>(state.range(0)) / 100.0;
  int exact = 0, consensus = 0;
  for (auto _ : state) {
    for (std::uint64_t seed : bench::trial_seeds(kTrials)) {
      const auto r = api::run("drr", failure_spec(api::Aggregate::kMax, seed, 0.0, crash));
      // r.truth is the exact Max over the surviving nodes.
      exact += r.value == r.truth ? 1 : 0;
      consensus += r.consensus ? 1 : 0;
    }
  }
  state.counters["crash_fraction"] = crash;
  state.counters["exact_rate"] = static_cast<double>(exact) / kTrials;
  state.counters["consensus_rate"] = static_cast<double>(consensus) / kTrials;
}
BENCHMARK(BM_MaxUnderCrashes)->Arg(0)->Arg(10)->Arg(25)->Arg(50)->Iterations(1);

// Combined worst case: crashes plus loss at the model's ceiling.
void BM_AveUnderCrashesAndLoss(benchmark::State& state) {
  const double crash = static_cast<double>(state.range(0)) / 100.0;
  RunningStat rel_err;
  for (auto _ : state) {
    for (std::uint64_t seed : bench::trial_seeds(kTrials)) {
      const auto r = api::run(
          "drr", failure_spec(api::Aggregate::kAve, seed, 0.125, crash, /*robust=*/true));
      rel_err.add(r.rel_error());
    }
  }
  state.counters["crash_fraction"] = crash;
  state.counters["rel_err_mean"] = rel_err.mean();
  state.counters["rel_err_max"] = rel_err.max();
}
BENCHMARK(BM_AveUnderCrashesAndLoss)->Arg(0)->Arg(10)->Arg(25)->Iterations(1);

// Count under loss: push-sum with the single-root denominator (the paper's
// "suitable modification") versus the extrema-propagation extension --
// min-diffusion is idempotent, so its error is pure estimator noise,
// independent of delta.
void BM_CountUnderLoss(benchmark::State& state) {
  const double delta = static_cast<double>(state.range(0)) / 1000.0;
  RunningStat pushsum_err, extrema_err;
  for (auto _ : state) {
    for (std::uint64_t seed : bench::trial_seeds(kTrials)) {
      const auto ps = api::run(
          "drr", failure_spec(api::Aggregate::kCount, seed, delta, 0.0, /*robust=*/true));
      pushsum_err.add(ps.rel_error());
      auto espec = failure_spec(api::Aggregate::kCount, seed, delta, 0.0);
      ExtremaConfig ecfg;
      ecfg.k = 256;  // rse ~ 6.3%
      espec.config = ecfg;
      const auto ex = api::run("extrema", espec);
      extrema_err.add(ex.rel_error());
    }
  }
  state.counters["delta"] = delta;
  state.counters["pushsum_err_mean"] = pushsum_err.mean();
  state.counters["pushsum_err_max"] = pushsum_err.max();
  state.counters["extrema_err_mean"] = extrema_err.mean();
  state.counters["extrema_err_max"] = extrema_err.max();
}
BENCHMARK(BM_CountUnderLoss)->Arg(0)->Arg(50)->Arg(125)->Arg(250)->Iterations(1);

}  // namespace
}  // namespace drrg

BENCHMARK_MAIN();
