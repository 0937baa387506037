#include "aggregate/drr_gossip.hpp"

#include <stdexcept>
#include <vector>

#include "aggregate/pipeline.hpp"
#include "rootgossip/ordered_key.hpp"
#include "support/rng.hpp"

namespace drrg {

namespace {

/// Final value broadcast + consensus bookkeeping of the dense pipelines:
/// the roots agree iff every root's value coincides (within rounding).
void finish(const Forest& forest, std::span<const double> root_value,
            const RngFactory& rngs, const sim::Scenario& scenario,
            const DrrGossipConfig& config, AggregateOutcome& out) {
  out.consensus = roots_agree(forest, root_value, root_value[forest.roots().front()], {});
  out.value = root_value[out.forest.largest_tree_root];
  if (config.broadcast_result &&
      !broadcast_value(forest, root_value, rngs, scenario, config.broadcast, out))
    out.consensus = false;
  keep_final_survivors(rngs, scenario, out);
}

/// Shared Max skeleton; `negate` turns it into Min.
AggregateOutcome max_pipeline(std::uint32_t n, std::span<const double> values,
                              std::uint64_t seed, const sim::Scenario& scenario,
                              const DrrGossipConfig& config, bool negate) {
  if (values.size() < n) throw std::invalid_argument("drr_gossip: values too short");
  RngFactory rngs{seed};
  std::vector<double>& work = support::scratch_buffer<double, kScratchWork>();
  work.assign(values.begin(), values.begin() + n);
  if (negate)
    for (double& v : work) v = -v;

  AggregateOutcome out;
  const DrrResult drr = run_drr(n, rngs, scenario, config.drr);
  const Forest& forest = drr.forest;
  const Phase12 p = run_phase12(drr, work, ConvergecastOp::kMax, rngs, scenario,
                                config.convergecast, config.broadcast, out);

  // Phase III: gossip the per-tree maxima among the roots.
  std::vector<std::uint64_t>& keys =
      support::scratch_buffer<std::uint64_t, kScratchKeys>();
  keys.assign(n, kKeyBottom);
  for (NodeId r : forest.roots()) keys[r] = encode_ordered(p.cc.aggregate[r]);
  GossipMaxConfig gm_cfg = config.gossip_max;
  gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 3);
  gm_cfg.round_budget_scale *= phase3_scale(n, scenario, config);
  gm_cfg.member_relay &= config.phase3_diameter_multiplier > 0.0;
  const GossipMaxResult gm =
      run_gossip_max(forest, keys, rngs, scenario.at_round(p.end_round), gm_cfg);
  out.metrics.gossip = gm.counters;
  out.rounds_total += gm.rounds;

  std::vector<double>& root_value =
      support::scratch_buffer<double, kScratchRootValue>();
  root_value.assign(n, 0.0);
  for (NodeId r : forest.roots()) {
    root_value[r] = decode_ordered(gm.key[r]);
    if (negate) root_value[r] = -root_value[r];
  }
  finish(forest, root_value, rngs, scenario, config, out);
  return out;
}

/// Shared Ave/Sum/Count skeleton (Algorithm 8).  In `sum_mode` the push-sum
/// denominator is the indicator of the elected root z, so the limit is the
/// global sum of the numerators instead of the average of the values.
AggregateOutcome ave_pipeline(std::uint32_t n, std::span<const double> values,
                              std::uint64_t seed, const sim::Scenario& scenario,
                              const DrrGossipConfig& config, bool sum_mode) {
  if (values.size() < n) throw std::invalid_argument("drr_gossip: values too short");
  RngFactory rngs{seed};

  AggregateOutcome out;
  const DrrResult drr = run_drr(n, rngs, scenario, config.drr);
  const Forest& forest = drr.forest;
  const Phase12 p = run_phase12(drr, values, ConvergecastOp::kSum, rngs, scenario,
                                config.convergecast, config.broadcast, out);

  // Phase III(a): Gossip-max on (tree size, id) keys elects the root of
  // the largest tree; each root then *locally* knows whether it is z.
  std::vector<std::uint64_t>& size_keys =
      support::scratch_buffer<std::uint64_t, kScratchSizeKeys>();
  size_keys.assign(n, kKeyBottom);
  for (NodeId r : forest.roots()) {
    // Tree sizes here come from Convergecast-sum (covsum(*, 2)), exactly
    // as Algorithm 8 prescribes -- not from global forest knowledge.
    size_keys[r] = encode_size_id(static_cast<std::uint32_t>(p.cc.weight[r]), r);
  }
  const double budget_scale = phase3_scale(n, scenario, config);
  const bool topology_adapt = config.phase3_diameter_multiplier > 0.0;
  GossipMaxConfig gm_cfg = config.gossip_max;
  gm_cfg.stream_tag = derive_seed(gm_cfg.stream_tag, 4);
  gm_cfg.round_budget_scale *= budget_scale;
  gm_cfg.member_relay &= topology_adapt;
  const GossipMaxResult election =
      run_gossip_max(forest, size_keys, rngs, scenario.at_round(p.end_round), gm_cfg);

  sim::Counters gossip_counters = election.counters;
  std::uint32_t gossip_rounds = election.rounds;

  // Phase III(b): push-sum on (local sum, tree size) -- or, for Sum/Count,
  // (local sum, indicator of believing to be z).
  std::vector<double>& num0 = support::scratch_buffer<double, kScratchNum0>();
  std::vector<double>& den0 = support::scratch_buffer<double, kScratchDen0>();
  num0.assign(n, 0.0);
  den0.assign(n, 0.0);
  for (NodeId r : forest.roots()) {
    num0[r] = p.cc.aggregate[r];
    if (sum_mode) {
      den0[r] = (election.key[r] == size_keys[r]) ? 1.0 : 0.0;
    } else {
      den0[r] = p.cc.weight[r];
    }
  }
  PushSumConfig ps_cfg = config.push_sum;
  ps_cfg.stream_tag = derive_seed(ps_cfg.stream_tag, 5);
  ps_cfg.round_budget_scale *= budget_scale;
  ps_cfg.member_relay &= topology_adapt;
  const PushSumResult ps = run_root_push_sum(
      forest, num0, den0, rngs, scenario.at_round(p.end_round + election.rounds), ps_cfg);
  gossip_counters += ps.counters;
  gossip_rounds += ps.rounds;
  out.metrics.gossip = gossip_counters;
  out.rounds_total += gossip_rounds;

  // Phase III(c): data-spread from every root that believes it is z (whp
  // exactly one).  The spread key carries that root's estimate.
  std::vector<std::uint64_t>& spread_init =
      support::scratch_buffer<std::uint64_t, kScratchSpreadKeys>();
  spread_init.assign(n, kKeyBottom);
  for (NodeId r : forest.roots()) {
    if (election.key[r] == size_keys[r] && ps.den[r] > 0.0)
      spread_init[r] = encode_ordered(ps.num[r] / ps.den[r]);
  }
  GossipMaxConfig spread_cfg = config.gossip_max;
  spread_cfg.stream_tag = derive_seed(spread_cfg.stream_tag, 6);
  spread_cfg.round_budget_scale *= budget_scale;
  spread_cfg.member_relay &= topology_adapt;
  const GossipMaxResult spread = run_gossip_max(
      forest, spread_init, rngs,
      scenario.at_round(p.end_round + gossip_rounds), spread_cfg);
  out.metrics.spread = spread.counters;
  out.rounds_total += spread.rounds;

  std::vector<double>& root_value =
      support::scratch_buffer<double, kScratchRootValue>();
  root_value.assign(n, 0.0);
  for (NodeId r : forest.roots())
    root_value[r] = spread.key[r] == kKeyBottom ? 0.0 : decode_ordered(spread.key[r]);
  finish(forest, root_value, rngs, scenario, config, out);
  return out;
}

}  // namespace

AggregateOutcome drr_gossip_max(std::uint32_t n, std::span<const double> values,
                                std::uint64_t seed, const sim::Scenario& scenario,
                                const DrrGossipConfig& config) {
  return max_pipeline(n, values, seed, scenario, config, /*negate=*/false);
}

AggregateOutcome drr_gossip_min(std::uint32_t n, std::span<const double> values,
                                std::uint64_t seed, const sim::Scenario& scenario,
                                const DrrGossipConfig& config) {
  return max_pipeline(n, values, seed, scenario, config, /*negate=*/true);
}

AggregateOutcome drr_gossip_ave(std::uint32_t n, std::span<const double> values,
                                std::uint64_t seed, const sim::Scenario& scenario,
                                const DrrGossipConfig& config) {
  return ave_pipeline(n, values, seed, scenario, config, /*sum_mode=*/false);
}

AggregateOutcome drr_gossip_sum(std::uint32_t n, std::span<const double> values,
                                std::uint64_t seed, const sim::Scenario& scenario,
                                const DrrGossipConfig& config) {
  return ave_pipeline(n, values, seed, scenario, config, /*sum_mode=*/true);
}

AggregateOutcome drr_gossip_count(std::uint32_t n, std::uint64_t seed,
                                  const sim::Scenario& scenario, const DrrGossipConfig& config) {
  std::vector<double>& ones = support::scratch_buffer<double, kScratchDerivedValues>();
  ones.assign(n, 1.0);
  return ave_pipeline(n, ones, seed, scenario, config, /*sum_mode=*/true);
}

AggregateOutcome drr_gossip_rank(std::uint32_t n, std::span<const double> values,
                                 double x, std::uint64_t seed, const sim::Scenario& scenario,
                                 const DrrGossipConfig& config) {
  if (values.size() < n) throw std::invalid_argument("drr_gossip_rank: values too short");
  std::vector<double>& indicator =
      support::scratch_buffer<double, kScratchDerivedValues>();
  indicator.assign(n, 0.0);
  for (std::uint32_t v = 0; v < n; ++v) indicator[v] = values[v] < x ? 1.0 : 0.0;
  return ave_pipeline(n, indicator, seed, scenario, config, /*sum_mode=*/true);
}

}  // namespace drrg
