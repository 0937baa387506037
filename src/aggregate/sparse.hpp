#pragma once
// DRR-gossip on sparse networks (§4): Local-DRR + tree aggregation +
// routed root gossip.
//
// Theorem 14 (instantiated for Chord, T = M = O(log n)): the pipeline
// takes O(log^2 n) time and O(n log n) messages whp, versus
// O(log^2 n) time and O(n log^2 n) messages for uniform gossip -- the
// log n message reduction comes from gossiping among O(n / d) = O(n / log n)
// roots instead of all n nodes.
//
//   Phase I    Local-DRR       O(1) time*, O(|E|) messages
//   Phase II   Convergecast + broadcast along tree (overlay) edges,
//              O(log n) time by Theorem 11, O(n) messages
//   Phase III  root gossip, O(log n) G~-rounds x O(T) routed hops each
//
// (*plus the constant-round loss-resilient rank re-exchange.)
//
// Phases I and II run on the flat executors under the paper's fault model
// (loss plus round-0 crashes) and on sim::Network otherwise, like every
// other family.  A logical G~ send of Phase III takes the substrate route
// (SparseRouter), then the tree walk up to the landing node's root, one
// hop per round.  Whenever a hop can fail -- loss, crashes, churn and the
// other structured adversity -- or draws randomness (the random-walk
// substrates), Phase III runs on sim::Network and every send is expanded
// into real hop-by-hop envelopes: mid-run churn kills intermediate
// carriers, per-hop loss comes from the engine's loss coin, and one global
// round clock spans all phases.  A fault-free run on a keyed substrate
// (Chord, grid, torus) runs Phase III in event time instead: each send
// resolves its whole route when it is made and is absorbed in the round
// the engine would deliver its last hop, bit for bit the engine's result
// without the per-hop envelopes (sparse.cpp, EventClock).
//
// Two substrate shapes are supported:
//   * the Chord overlay of §4 (sparse_drr_gossip_* overloads taking a
//     ChordOverlay) -- greedy finger routing + successor smear;
//   * any explicit sim::Topology (grid, torus, random-regular, ...) --
//     Local-DRR runs on the substrate's CSR adjacency and Phase III
//     routes by coordinates (grids) or a Theta(log n) random walk.
//     Because the routed sampler is (near-)uniform over V, the root
//     push-sum mixes like the complete graph instead of diffusing along
//     the lattice -- this is the accurate sparse Ave that the dense
//     pipeline's member-relay push-sum (Theta(diam^2) mixing) cannot
//     reach at an O(diam log n) budget.

#include <cstdint>
#include <span>

#include "aggregate/types.hpp"
#include "chord/chord.hpp"
#include "drr/local_drr.hpp"
#include "topology/graph.hpp"

namespace drrg {

/// The overlay's link graph: successor + finger edges.  Local-DRR and the
/// tree phases run on these edges.
[[nodiscard]] Graph overlay_graph(const ChordOverlay& chord);

struct SparseGossipConfig {
  LocalDrrConfig local_drr;
  ConvergecastConfig convergecast;
  BroadcastConfig broadcast;  ///< simultaneous_children is forced on (§4 A1)
  GossipMaxConfig gossip_max;
  PushSumConfig push_sum;
  bool broadcast_result = true;
};

/// Maximum over alive nodes on the Chord overlay.  `scenario` supplies
/// the full fault schedule (loss + start-time crashes + mid-run churn);
/// its topology must be complete -- the overlay *is* the substrate.
[[nodiscard]] AggregateOutcome sparse_drr_gossip_max(const ChordOverlay& chord,
                                                     const Graph& links,
                                                     std::span<const double> values,
                                                     std::uint64_t seed,
                                                     const sim::Scenario& scenario = {},
                                                     const SparseGossipConfig& config = {});

/// Average over alive nodes on the Chord overlay (Algorithm 8 shape).
[[nodiscard]] AggregateOutcome sparse_drr_gossip_ave(const ChordOverlay& chord,
                                                     const Graph& links,
                                                     std::span<const double> values,
                                                     std::uint64_t seed,
                                                     const sim::Scenario& scenario = {},
                                                     const SparseGossipConfig& config = {});

/// Maximum over alive nodes on an explicit substrate: Local-DRR on
/// scenario.topology's CSR adjacency, Phase III routed on the substrate.
/// Throws std::invalid_argument when the topology is complete (use the
/// dense drr_gossip_max there).
[[nodiscard]] AggregateOutcome sparse_drr_gossip_max(std::span<const double> values,
                                                     std::uint64_t seed,
                                                     const sim::Scenario& scenario,
                                                     const SparseGossipConfig& config = {});

/// Average over alive nodes on an explicit substrate (accurate Ave via
/// tree aggregation + routed root push-sum).
[[nodiscard]] AggregateOutcome sparse_drr_gossip_ave(std::span<const double> values,
                                                     std::uint64_t seed,
                                                     const sim::Scenario& scenario,
                                                     const SparseGossipConfig& config = {});

}  // namespace drrg
