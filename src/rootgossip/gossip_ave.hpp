#pragma once
// Phase III: Gossip-ave (Algorithm 6) -- push-sum over the forest roots.
//
// Every root holds a pair (s, g) initialised from Convergecast-sum (local
// value sum, tree size).  Each round it keeps (s/2, g/2) and sends the
// other half to a node selected uniformly at random from all of V; a
// non-root forwards to its root (the two-hop G~ edge).  All estimates
// s/g converge to sum(v_i)/n = Ave; Theorem 7 guarantees relative error
// <= 2/(n^alpha - 1) at the largest-tree root z after O(log n) rounds.
//
// The implementation is generic in the pair (num, den), which also yields
// Sum and Count: start den as the indicator of a single designated root
// and the common ratio limit becomes sum(num)/1.
//
// Analysis mode (forward_via_trees = false) delivers straight to the
// selected node's root in the same round -- exactly the G~ = clique(V~)
// process Lemma 8 analyses, with selection probability proportional to
// tree size -- and can track the contribution vectors y_{t,i} to report
// the potential Phi_t = sum_{i,j} (y_{t,i,j} - w_{t,i}/m)^2 per round.
//
// Lost mass is re-absorbed: the first receiver of a pushed half acks it
// with 1 bit, and a half whose ack never comes (crashed target, loss coin)
// returns to its sender, so crashes cannot skew Ave/Sum/Count.  Forward-hop
// losses stay unrecovered: the residual drift is O(loss_prob).

#include <cstdint>
#include <span>
#include <vector>

#include "forest/forest.hpp"
#include "sim/counters.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace drrg {

struct PushSumConfig {
  /// Push rounds = rounds_multiplier * ceil(log2 n) + extra_rounds.
  double rounds_multiplier = 4.0;
  std::uint32_t extra_rounds = 8;
  /// Multiplies the push-round budget (1.0 = the paper's O(log n)
  /// schedule); raised by the DRR pipelines on diameter-heavy substrates.
  double round_budget_scale = 1.0;
  /// On explicit topologies, leave the tree through a uniform random tree
  /// member (see GossipMaxConfig::member_relay).  No effect on K_n.
  bool member_relay = true;
  /// Realistic mode: route via the selected node (2 hops per G~ edge).
  /// Analysis mode (false): deliver directly to the selected node's root.
  bool forward_via_trees = true;
  /// Routed pipelines only (sparse/chord substrates): arm the hop-level
  /// carry-ack.  Every forwarded share hop becomes a custody transfer --
  /// the sender parks the mass until the next carrier acks on the
  /// established call, and re-homes it on a fresh route when the ack
  /// window lapses (lost hop, carrier crashed mid-flight, or a route
  /// stranded by dead lattice regions).  Closes the per-hop O(loss) mass
  /// leak the initiating-call ack cannot see.  Off by default: armed runs
  /// trade ~1 ack per hop and a wider upcall scan for conservation under
  /// loss.
  bool hop_carry_ack = false;
  /// Track contribution vectors (O(m^2) memory; analysis mode only).
  bool track_potential = false;
  /// Disambiguates RNG streams when one pipeline runs the protocol twice.
  std::uint64_t stream_tag = 0;
};

struct PushSumResult {
  std::vector<double> num;       ///< final numerator at each node (roots)
  std::vector<double> den;       ///< final denominator at each node (roots)
  std::vector<double> estimate;  ///< num/den where den > 0, else 0
  sim::Counters counters;
  std::uint32_t rounds = 0;
  /// track_potential: Phi_t after each round (Lemma 8 predicts halving).
  std::vector<double> potential_per_round;
  /// track_potential: estimate at the largest-tree root z after each round
  /// (Theorem 7's subject).
  std::vector<double> z_estimate_per_round;
};

/// Runs push-sum over the roots of `forest` with initial pairs
/// (num0[r], den0[r]) (non-root entries ignored).
[[nodiscard]] PushSumResult run_root_push_sum(const Forest& forest,
                                              std::span<const double> num0,
                                              std::span<const double> den0,
                                              const RngFactory& rngs,
                                              const sim::Scenario& scenario = {},
                                              PushSumConfig config = {});

}  // namespace drrg
