#pragma once
// Plumbing shared by the DRR-gossip pipelines (private to src/aggregate/):
// the dense pipeline (drr_gossip.cpp), the sparse one (sparse.cpp) and
// extrema propagation (extrema.cpp).
//
// Phase I stays with each pipeline (DRR on the complete graph, Local-DRR
// on a sparse one), and so does the consensus rule: the dense pipeline
// judges every root, the sparse one only the roots that survive the run.
// Phase II on top of Phase I's forest, the outcome header, the final
// value broadcast and the Phase III budget scale are the same everywhere
// and live here.

#include <cstdint>
#include <span>
#include <vector>

#include "aggregate/types.hpp"
#include "support/rng.hpp"
#include "support/scratch.hpp"

namespace drrg {

/// Pooled payload-staging slots (support/scratch.hpp) of the pipelines.
/// Distinct tags for buffers whose lifetimes overlap within one run;
/// contents are fully rewritten by assign() before every use.
enum ScratchTag : int {
  kScratchAddrPayload,
  kScratchWork,
  kScratchKeys,
  kScratchRootValue,
  kScratchSizeKeys,
  kScratchNum0,
  kScratchDen0,
  kScratchSpreadKeys,
  kScratchSpreadAux,
  kScratchDerivedValues,
  kScratchRootStreams,
  kScratchEventRing,
};

/// What Phase III needs from Phases I-II besides the forest.
struct Phase12 {
  ConvergecastResult cc;
  std::uint32_t end_round = 0;  ///< global clock after Phase II
};

/// Final value broadcast: every member learns its root's entry of
/// `root_value`, on the global clock after the `out.rounds_total` rounds
/// run so far.  Records the metrics, rounds and per-node values in `out`;
/// returns whether every member was informed.
[[nodiscard]] bool broadcast_value(const Forest& forest, std::span<const double> root_value,
                                   const RngFactory& rngs, const sim::Scenario& scenario,
                                   BroadcastConfig config, AggregateOutcome& out);

/// Restricts out.participating to the nodes alive at the end of the run:
/// Phase I membership captures who was alive at the start, but a member
/// that crashes at round r must not be reported as participating.
/// Returns the survivor mask -- empty when the schedule has no mid-run
/// deaths or joins, and everyone alive at the start survives.
std::vector<bool> keep_final_survivors(const RngFactory& rngs, const sim::Scenario& scenario,
                                       AggregateOutcome& out);

/// True iff every root -- every surviving root, given a non-empty
/// `survivors` mask -- holds `ref` up to rounding (kAgreeTolerance,
/// relative to the larger magnitude and at least 1).
[[nodiscard]] bool roots_agree(const Forest& forest, std::span<const double> root_value,
                               double ref, const std::vector<bool>& survivors);

/// Phase III round-budget scale for the scenario's substrate: 1.0 on the
/// complete topology and on overlays whose diameter is within the O(log n)
/// schedule, diameter/log-proportional beyond that (the grid/torus fix).
/// Event-time latency stretches every mixing generation by the expected
/// call delay, so the budget is additionally scaled by 1 + E[delay] to
/// keep the number of *completed* generations -- a factor of exactly 1
/// under the zero model, leaving historical schedules untouched.
[[nodiscard]] double phase3_scale(std::uint32_t n, const sim::Scenario& scenario,
                                  const DrrGossipConfig& config);

/// Phase II over the forest of `phase1` (a DrrResult or LocalDrrResult):
/// convergecast of `values`, then the root-address broadcast, after which
/// every tree member can forward Phase III traffic to its root.  Each
/// phase's Network starts where the previous one stopped on the
/// scenario's global clock, so one churn schedule spans the pipeline.
/// Opens `out` with the forest summary, the participating mask (Phase I
/// membership) and the Phase I-II metrics and rounds.
template <class PhaseOne>
[[nodiscard]] Phase12 run_phase12(const PhaseOne& phase1, std::span<const double> values,
                                  ConvergecastOp op, const RngFactory& rngs,
                                  const sim::Scenario& scenario,
                                  const ConvergecastConfig& cc_config,
                                  BroadcastConfig bc_config, AggregateOutcome& out) {
  const Forest& forest = phase1.forest;
  out.forest.num_trees = forest.num_trees();
  out.forest.max_tree_size = forest.max_tree_size();
  out.forest.max_tree_height = forest.max_tree_height();
  out.forest.largest_tree_root = forest.largest_tree_root();
  out.participating.assign(forest.size(), false);
  for (NodeId v = 0; v < forest.size(); ++v) out.participating[v] = forest.is_member(v);

  Phase12 p;
  std::uint32_t clock = scenario.start_round + phase1.rounds;
  p.cc = run_convergecast(forest, values, op, rngs, scenario.at_round(clock), cc_config);
  clock += p.cc.rounds;
  // Phase III forwarding reads root_of() from the forest structure; this
  // acknowledged broadcast is what distributes those addresses (and what
  // the run pays for them).
  std::vector<double>& addr_payload = support::scratch_buffer<double, kScratchAddrPayload>();
  addr_payload.assign(forest.size(), 0.0);
  for (NodeId r : forest.roots()) addr_payload[r] = static_cast<double>(r);
  bc_config.stream_tag = derive_seed(bc_config.stream_tag, 1);
  const BroadcastResult addr =
      run_broadcast(forest, addr_payload, rngs, scenario.at_round(clock), bc_config);
  p.end_round = clock + addr.rounds;

  out.metrics.drr = phase1.counters;
  out.metrics.convergecast = p.cc.counters;
  out.metrics.root_broadcast = addr.counters;
  out.rounds_total = phase1.rounds + p.cc.rounds + addr.rounds;
  return p;
}

}  // namespace drrg
