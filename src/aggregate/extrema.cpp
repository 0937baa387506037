#include "aggregate/extrema.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "aggregate/pipeline.hpp"
#include "drr/drr.hpp"
#include "rootgossip/gossip_max_protocol.hpp"
#include "support/mathutil.hpp"
#include "trees/convergecast_protocol.hpp"

namespace drrg {

namespace {

using MinVec = std::vector<double>;

/// Componentwise minimum: the fold of both Phase II and Phase III.
struct MinEach {
  using Value = MinVec;
  void operator()(MinVec& into, const MinVec& from) const {
    for (std::size_t j = 0; j < into.size(); ++j) into[j] = std::min(into[j], from[j]);
  }
};

// ---------------------------------------------------------------------------
// Shared driver: draw exponentials, run the three phases, estimate.

ExtremaOutcome run_extrema(std::uint32_t n, std::span<const double> rates,
                           std::uint64_t seed, const sim::Scenario& scenario,
                           ExtremaConfig config) {
  RngFactory rngs{seed};
  const DrrResult drr = run_drr(n, rngs, scenario, {});
  const Forest& forest = drr.forest;

  const std::uint32_t k =
      config.k != 0 ? config.k : 4 * std::max<std::uint32_t>(2, ceil_log2(n));
  const std::uint32_t vec_bits = k * 64 + address_bits(n);

  // Per-node exponential draws: w ~ Exp(rate) = -ln(U)/rate.
  auto draw_minima = [&](NodeId v) {
    if (!(rates[v] > 0.0))
      throw std::invalid_argument("extrema propagation requires positive values");
    Rng draw = rngs.node_stream(v, 0xe87e);
    MinVec w(k);
    for (std::uint32_t j = 0; j < k; ++j) {
      const double u = std::max(draw.next_unit(), 1e-300);
      w[j] = -std::log(u) / rates[v];
    }
    return w;
  };

  ExtremaOutcome out;
  out.k = k;
  out.predicted_rse = k > 2 ? 1.0 / std::sqrt(static_cast<double>(k - 2)) : 1.0;
  out.counters = drr.counters;
  out.rounds_total = drr.rounds;

  // Phase II: componentwise-min convergecast.  Each phase's Network
  // resumes the scenario's global clock where the previous one stopped,
  // so one churn schedule spans all three phases.
  CcProtocol<MinEach> cc{forest, MinEach{}, vec_bits, draw_minima};
  {
    sim::Network<CcMsg<MinVec>> net{
        n, rngs, scenario.at_round(scenario.start_round + out.rounds_total), 0xecc};
    const std::uint32_t rounds = net.run(cc, convergecast_round_budget(forest));
    out.counters += net.counters();
    out.rounds_total += rounds;
  }

  // Phase III: Gossip-max among the roots with min-merge, configured the
  // way the dense Max pipeline configures it (member relay and the
  // substrate/latency budget scale).
  GossipMaxConfig gm_cfg = config.gossip;
  gm_cfg.round_budget_scale *= phase3_scale(n, scenario, DrrGossipConfig{});
  GossipMaxProtocol<MinEach> gossip{forest, MinEach{}, vec_bits, gm_cfg, scenario.topology,
                                    [&cc](NodeId r) { return std::move(cc.state[r].acc); }};
  {
    sim::Network<GmMsg<MinVec>> net{
        n, rngs, scenario.at_round(scenario.start_round + out.rounds_total), 0xe90};
    for (std::uint32_t r = 0; r < gossip.total_rounds(); ++r) net.step(gossip);
    out.counters += net.counters();
    out.rounds_total += gossip.total_rounds();
  }

  // Estimate at every root; consensus iff all share the global min vector.
  const std::vector<MinVec>& state = gossip.value;
  const NodeId z = forest.largest_tree_root();
  double sum_min = 0.0;
  for (double m : state[z]) sum_min += m;
  out.estimate = sum_min > 0.0 ? static_cast<double>(k - 1) / sum_min : 0.0;
  out.consensus = true;
  for (NodeId r : forest.roots())
    if (state[r] != state[z]) out.consensus = false;
  return out;
}

}  // namespace

ExtremaOutcome drr_gossip_count_extrema(std::uint32_t n, std::uint64_t seed,
                                        const sim::Scenario& scenario, ExtremaConfig config) {
  std::vector<double> ones(n, 1.0);
  return run_extrema(n, ones, seed, scenario, config);
}

ExtremaOutcome drr_gossip_sum_extrema(std::uint32_t n, std::span<const double> values,
                                      std::uint64_t seed, const sim::Scenario& scenario,
                                      ExtremaConfig config) {
  if (values.size() < n) throw std::invalid_argument("extrema sum: values too short");
  return run_extrema(n, values, seed, scenario, config);
}

}  // namespace drrg
