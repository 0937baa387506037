#pragma once
// Randomized pairwise-averaging gossip (Boyd, Ghosh, Prabhakar, Shah,
// "Randomized gossip algorithms", IEEE Trans. IT 2006 -- reference [1]
// of the paper).
//
// The classic *averaging* alternative to push-sum: in each round every
// node calls a uniformly random partner (or a random graph neighbor in
// the sparse variant) and the pair REPLACES both values by their mean.
// Pairwise averaging conserves the exact sum at every step, so unlike
// push-sum it needs no weight bookkeeping; its mixing on the complete
// graph is likewise geometric.  It serves as a second address-oblivious
// Average baseline: Theta(n log n) messages to epsilon-accuracy, and it
// cannot exploit the DRR forest, so it inherits the Theorem 15 wall.
//
// A call is an established connection: the callee's reply (its value) is
// reliable, and both ends then hold the mean.  A *lost* call averages
// nothing.  If several callers hit one node in a round, the callee
// serves them sequentially against its running value (the standard
// asynchronous-to-synchronous adaptation).

#include <cstdint>
#include <span>
#include <vector>

#include "sim/counters.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace drrg {

struct PairwiseConfig {
  /// Rounds = round_multiplier * ceil(log2 n) + extra_rounds.
  double round_multiplier = 6.0;
  std::uint32_t extra_rounds = 8;
  /// Record the first round with max relative error < epsilon.
  double epsilon = 1e-6;
};

struct PairwiseResult {
  std::vector<double> value;  ///< final value at each node
  double max_relative_error = 0.0;
  std::uint32_t rounds_to_epsilon = 0;  ///< 0 if never reached
  std::uint64_t messages_to_epsilon = 0;
  std::vector<double> error_per_round;
  sim::Counters counters;
};

/// Pairwise averaging with partners drawn by the scenario's topology:
/// uniform over all nodes on the complete graph, a uniform random
/// neighbor on an explicit one (the distributed-averaging setting of
/// [1], e.g. sim::Topology::of_graph(g)).
[[nodiscard]] PairwiseResult pairwise_average(std::uint32_t n,
                                              std::span<const double> values,
                                              std::uint64_t seed,
                                              const sim::Scenario& scenario = {},
                                              PairwiseConfig config = {});

}  // namespace drrg
