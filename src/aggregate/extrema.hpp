#pragma once
// Loss-robust Count/Sum via extrema propagation (Mosk-Aoyama & Shah,
// "Computing separable functions via gossip", PODC 2006 -- reference [16]
// of the paper), composed with the DRR-gossip machinery.
//
// Motivation: the push-sum Sum/Count variants concentrate the denominator
// mass on a single root, so one lost message early in Phase III can shift
// the estimate by a large factor (see EXPERIMENTS.md).  Extrema
// propagation replaces mass-splitting with *minimum diffusion*, which --
// like Max -- is idempotent and therefore immune to message loss and
// duplication:
//
//   * every node draws k independent exponentials; for Count with rate 1,
//     for Sum with rate v_i (values must be positive);
//   * the componentwise minimum over all nodes is distributed
//     Exp(n) resp. Exp(sum v_i), and diffuses through exactly the same
//     three phases as Max: convergecast-min up the DRR trees, then
//     root gossip with componentwise-min absorption.  Both run the
//     shared protocols (trees/convergecast_protocol.hpp and
//     rootgossip/gossip_max_protocol.hpp) with a min-vector fold, so
//     extrema gets everything Max gets: per-child dedup of repeated
//     sends under latency, the member relay and the diameter/latency
//     round budget on explicit substrates, and calls landing on
//     late joiners (alive, but outside the forest) dropped;
//   * each root estimates n (resp. the sum) as (k-1) / sum_j min_j --
//     the unbiased inverse-Gamma estimator with relative standard error
//     1/sqrt(k-2).
//
// Trade-off: messages carry k values instead of one, so the message-size
// cap becomes O(k log s) bits -- the known cost of the scheme (we default
// k to 4 log2 n, giving ~1/sqrt(4 log n) relative error).  Message
// *counts* keep the DRR-gossip O(n log log n) shape.

#include <cstdint>
#include <span>

#include "rootgossip/gossip_max.hpp"
#include "sim/counters.hpp"
#include "sim/scenario.hpp"

namespace drrg {

struct ExtremaConfig {
  /// Number of exponentials per node; 0 = 4 * ceil(log2 n).
  std::uint32_t k = 0;
  /// Phase III schedule and member relay, as for Gossip-max (stream_tag
  /// is unused: extrema's streams have fixed purposes).
  GossipMaxConfig gossip;
};

struct ExtremaOutcome {
  double estimate = 0.0;       ///< consensus estimate of Count / Sum
  double predicted_rse = 0.0;  ///< 1/sqrt(k-2): expected relative std error
  bool consensus = false;      ///< all roots share the final min-vector
  std::uint32_t k = 0;
  sim::Counters counters;      ///< all phases
  std::uint32_t rounds_total = 0;
};

/// Number of alive nodes, robust to message loss.
[[nodiscard]] ExtremaOutcome drr_gossip_count_extrema(std::uint32_t n, std::uint64_t seed,
                                                      const sim::Scenario& scenario = {},
                                                      ExtremaConfig config = {});

/// Sum of strictly positive values, robust to message loss.  Throws
/// std::invalid_argument if any participating value is <= 0.
[[nodiscard]] ExtremaOutcome drr_gossip_sum_extrema(std::uint32_t n,
                                                    std::span<const double> values,
                                                    std::uint64_t seed,
                                                    const sim::Scenario& scenario = {},
                                                    ExtremaConfig config = {});

}  // namespace drrg
