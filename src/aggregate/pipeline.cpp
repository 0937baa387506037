#include "aggregate/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/mathutil.hpp"

namespace drrg {

namespace {

constexpr double kAgreeTolerance = 1e-9;  // relative, consensus checks

}  // namespace

bool broadcast_value(const Forest& forest, std::span<const double> root_value,
                     const RngFactory& rngs, const sim::Scenario& scenario,
                     BroadcastConfig config, AggregateOutcome& out) {
  config.stream_tag = derive_seed(config.stream_tag, 2);
  BroadcastResult bc =
      run_broadcast(forest, root_value, rngs,
                    scenario.at_round(scenario.start_round + out.rounds_total), config);
  out.metrics.value_broadcast = bc.counters;
  out.rounds_total += bc.rounds;
  out.per_node = std::move(bc.received);
  return bc.complete;
}

std::vector<bool> keep_final_survivors(const RngFactory& rngs, const sim::Scenario& scenario,
                                       AggregateOutcome& out) {
  if (!scenario.faults.has_churn() && !scenario.faults.has_blocks() &&
      !scenario.faults.has_joins())
    return {};
  const auto n = static_cast<std::uint32_t>(out.participating.size());
  std::vector<bool> survivors = sim::survivor_mask(n, rngs, scenario.faults,
                                                   scenario.start_round + out.rounds_total);
  for (std::uint32_t v = 0; v < n; ++v)
    out.participating[v] = out.participating[v] && survivors[v];
  return survivors;
}

bool roots_agree(const Forest& forest, std::span<const double> root_value, double ref,
                 const std::vector<bool>& survivors) {
  for (NodeId r : forest.roots()) {
    if (!survivors.empty() && !survivors[r]) continue;
    const double scale = std::max({std::fabs(ref), std::fabs(root_value[r]), 1.0});
    if (std::fabs(root_value[r] - ref) > kAgreeTolerance * scale) return false;
  }
  return true;
}

double phase3_scale(std::uint32_t n, const sim::Scenario& scenario,
                    const DrrGossipConfig& config) {
  const double latency_scale = 1.0 + scenario.faults.latency.mean();
  if (config.phase3_diameter_multiplier <= 0.0 || scenario.topology.is_complete())
    return latency_scale;
  const double diameter = scenario.topology.diameter();
  const double budget = static_cast<double>(ceil_log2(n));
  return latency_scale *
         std::max(1.0, config.phase3_diameter_multiplier * diameter / budget);
}

}  // namespace drrg
