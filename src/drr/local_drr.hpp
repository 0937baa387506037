#pragma once
// Local-DRR (§4): the DRR variant for sparse networks where nodes only
// talk to graph neighbors but may message *all* neighbors in one round
// (the standard message-passing model assumption (1) of §4).
//
// Each node draws a rank in [0,1), exchanges ranks with its neighbors,
// and connects to its highest-ranked neighbor if that neighbor outranks
// it; a node that is a local rank maximum becomes a root.  Theorem 11
// bounds every produced tree's height by O(log n) on any graph, and
// Theorem 13 gives the expected number of trees as sum_i 1/(d_i + 1).
//
// Under message loss the rank exchange is repeated a constant number of
// rounds; the connection is acknowledged and retried, and a node whose
// connections all fail becomes a root.  A node only ever connects to a
// neighbor it has *heard* a higher rank from, so the rank-increasing
// (hence acyclic) invariant survives arbitrary loss.

#include <cstdint>
#include <vector>

#include "forest/forest.hpp"
#include "sim/counters.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"
#include "topology/graph.hpp"

namespace drrg {

struct LocalDrrConfig {
  /// Rank-exchange rounds (loss resilience); 1 suffices at delta = 0.
  std::uint32_t exchange_rounds = 2;
  /// Connection (re)send attempts before giving up and becoming a root.
  std::uint32_t connect_attempt_cap = 8;
};

struct LocalDrrResult {
  Forest forest;
  std::vector<double> ranks;
  sim::Counters counters;
  std::uint32_t rounds = 0;
};

/// Runs Local-DRR on an explicit graph.  Deterministic in
/// (graph, rngs root seed, scenario, config).  A schedule inside
/// FaultSchedule::paper_model() (no faults, or per-call loss plus a crash
/// set fixed at round 0) runs on a flat lockstep executor; churn, block
/// crashes, joins, partitions and latency run on sim::Network.  Both paths
/// give bit-identical results wherever both apply.
[[nodiscard]] LocalDrrResult run_local_drr(const Graph& g, const RngFactory& rngs,
                                           const sim::Scenario& scenario = {},
                                           LocalDrrConfig config = {});

}  // namespace drrg
