#pragma once
// Quantile/median estimation on top of DRR-gossip (the "Rank" aggregate
// family of §1).  Kempe et al. [9] estimate quantiles by repeated rank
// queries; we follow the same scheme with DRR-gossip as the rank engine:
// binary-search the value domain, each probe costing one full
// DRR-gossip-rank run (O(log n) rounds, O(n log log n) messages), so a
// quantile costs O(log(range/tolerance)) pipeline runs.  Min, Max and
// Count runs bracket the domain first.  Every run executes on the calling
// thread, one after another; concurrency belongs to whole trials
// (api::run_trials).

#include <cstdint>
#include <span>
#include <vector>

#include "aggregate/drr_gossip.hpp"

namespace drrg {

struct QuantileConfig {
  /// Bisection iterations on the value domain.
  std::uint32_t iterations = 40;
  DrrGossipConfig pipeline;
};

struct QuantileOutcome {
  double value = 0.0;          ///< estimated q-quantile
  double achieved_rank = 0.0;  ///< rank of `value` per the final query
  sim::Counters total;         ///< cost across all pipeline runs
  std::uint32_t pipeline_runs = 0;
  /// Alive mask shared by every sub-run (all sub-runs draw the same crash
  /// set because they share one root seed; see quantile.cpp).
  std::vector<bool> participating;
};

/// Estimates the q-quantile (q in [0,1]) of values over alive nodes.
/// Deterministic in (n, seed, q, scenario, config).  All sub-runs share
/// the root seed (hence one crash set); each derives distinct protocol
/// randomness via config stream tags.
[[nodiscard]] QuantileOutcome drr_gossip_quantile(std::uint32_t n,
                                                  std::span<const double> values,
                                                  double q, std::uint64_t seed,
                                                  const sim::Scenario& scenario = {},
                                                  const QuantileConfig& config = {});

/// Median: quantile(0.5).
[[nodiscard]] QuantileOutcome drr_gossip_median(std::uint32_t n,
                                                std::span<const double> values,
                                                std::uint64_t seed,
                                                const sim::Scenario& scenario = {},
                                                const QuantileConfig& config = {});

}  // namespace drrg
