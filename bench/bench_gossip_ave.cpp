// Experiment E7 -- Theorem 7 and Lemma 8 (Phase III, Gossip-ave):
//
//   Lemma 8: the potential Phi_t (variance of the contribution vectors)
//   halves per round in conditional expectation even though root selection
//   is proportional to tree size -> column phi_decay_mean (the measured
//   per-round ratio; must sit near or below 0.5 on average).
//
//   Theorem 7: after O(log n) rounds the relative error at z (root of the
//   largest tree) is polynomially small -> columns err_z_final and
//   rounds_to_1e6 (first round with err < 1e-6, divided by log2 n).
//
// The per-round series (round, Phi_t, err_z) is printed for one
// representative run after the counter table: this is the paper's
// "figure" for the diffusion speed.

#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "drr/drr.hpp"
#include "rootgossip/gossip_ave.hpp"
#include "support/mathutil.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace drrg::ave_bench {

constexpr int kTrials = 5;

struct AveRun {
  PushSumResult ps;
  double true_ratio = 0.0;
};

AveRun run_tracked(std::uint32_t n, std::uint64_t seed, double delta) {
  RngFactory rngs{seed};
  const DrrResult drr = run_drr(n, rngs, sim::FaultSchedule{delta, 0.0});
  const auto values = bench::make_values(n, seed);
  std::vector<double> num0(n, 0.0), den0(n, 0.0);
  double ns = 0.0, ds = 0.0;
  for (NodeId r : drr.forest.roots()) {
    num0[r] = values[r];
    den0[r] = drr.forest.tree_size(r);
    ns += num0[r];
    ds += den0[r];
  }
  PushSumConfig cfg;
  cfg.forward_via_trees = false;  // the G~ = clique(V~) process of the analysis
  cfg.track_potential = true;
  cfg.rounds_multiplier = 6.0;
  return {run_root_push_sum(drr.forest, num0, den0, rngs, sim::FaultSchedule{delta, 0.0}, cfg),
          ns / ds};
}

void run_case(benchmark::State& state, double delta) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  RunningStat decay, err_final, rounds_to_eps;
  for (auto _ : state) {
    for (std::uint64_t seed : bench::trial_seeds(kTrials)) {
      const AveRun run = run_tracked(n, seed, delta);
      const auto& phi = run.ps.potential_per_round;
      // Mean per-round decay over the window where Phi is well above
      // floating-point noise.
      double ratio_sum = 0.0;
      int ratio_count = 0;
      for (std::size_t t = 1; t < phi.size() && phi[t - 1] > 1e-20; ++t) {
        ratio_sum += phi[t] / phi[t - 1];
        ++ratio_count;
      }
      if (ratio_count > 0) decay.add(ratio_sum / ratio_count);
      const double scale = std::max(1.0, std::fabs(run.true_ratio));
      err_final.add(std::fabs(run.ps.z_estimate_per_round.back() - run.true_ratio) / scale);
      for (std::size_t t = 0; t < run.ps.z_estimate_per_round.size(); ++t) {
        if (std::fabs(run.ps.z_estimate_per_round[t] - run.true_ratio) / scale < 1e-6) {
          rounds_to_eps.add(static_cast<double>(t + 1));
          break;
        }
      }
    }
  }
  state.counters["phi_decay_mean"] = decay.mean();
  state.counters["err_z_final"] = err_final.mean();
  state.counters["rounds_to_1e6"] = rounds_to_eps.mean();
  state.counters["rounds_to_1e6_per_log"] = rounds_to_eps.mean() / log2_clamped(n);
}

void BM_GossipAveDiffusion(benchmark::State& state) { run_case(state, 0.0); }
BENCHMARK(BM_GossipAveDiffusion)->RangeMultiplier(4)->Range(1 << 8, 1 << 14)->Iterations(1);

void BM_GossipAveDiffusionLossy(benchmark::State& state) { run_case(state, 0.125); }
BENCHMARK(BM_GossipAveDiffusionLossy)
    ->RangeMultiplier(4)
    ->Range(1 << 8, 1 << 14)
    ->Iterations(1);

void print_diffusion_figure() {
  const std::uint32_t n = 4096;
  const AveRun run = run_tracked(n, /*seed=*/7, /*delta=*/0.0);
  Table t{{"round", "phi", "err_z"}};
  const double scale = std::max(1.0, std::fabs(run.true_ratio));
  for (std::size_t r = 0; r < run.ps.potential_per_round.size(); r += 2) {
    t.row()
        .add_int(static_cast<long long>(r + 1))
        .add_real(run.ps.potential_per_round[r], 10)
        .add_real(std::fabs(run.ps.z_estimate_per_round[r] - run.true_ratio) / scale, 10);
  }
  std::cout << "\nDiffusion of Gossip-ave at n = " << n
            << " (Lemma 8 figure: phi halves per round; Theorem 7: err at z)\n"
            << t.to_string();
}

}  // namespace drrg::ave_bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  drrg::ave_bench::print_diffusion_figure();
  return 0;
}
