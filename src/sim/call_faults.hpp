#pragma once
// sim::CallFaults -- §2's fault model resolved one call at a time, for the
// flat lockstep executors (run_drr_flat, run_local_drr_flat,
// run_convergecast_flat, run_broadcast_flat and
// rootgossip::run_flat_root_gossip).
//
// Under FaultSchedule::paper_model() a call can fail in exactly two ways:
// its destination is in the crash set fixed at round 0, or its loss coin
// comes up.  sim::Network's delivery step decides both per envelope, in
// send order, with the crash test first (a crashed destination consumes
// no coin).  A flat loop that makes its calls in that same order and asks
// lost(dst) once per call draws the same coins from the same stream, so
// every counter, every delivery and every later RNG draw matches the
// engine path bit for bit (pinned by the equivalence tests in
// tests/test_determinism.cpp).  Replies ride the established call and
// are reliable: they never consult this.

#include <cstdint>
#include <vector>

#include "sim/scenario.hpp"
#include "support/rng.hpp"

namespace drrg::sim {

/// Engine-stream tag of a network's per-call loss coins: the stream is
/// rngs.engine_stream(derive_seed(purpose, kLossStreamTag)).
inline constexpr std::uint64_t kLossStreamTag = 0x105eULL;

class CallFaults {
 public:
  /// The faults a Network{n, rngs, scenario, purpose} would apply, for a
  /// schedule satisfying scenario.faults.paper_model().  The crash set is
  /// taken from full_timeline at scenario.start_round, as the Network
  /// constructor takes it -- not from any forest's membership.  A
  /// fault-free schedule allocates nothing.  Out of line: it runs once
  /// per phase, and inlined its body would compete with the callers' hot
  /// loops for the compiler's inlining budget.
  CallFaults(std::uint32_t n, const RngFactory& rngs, const Scenario& scenario,
             std::uint64_t purpose);

  /// False when no call can fail (no loss, nobody down): the executors
  /// then run their fault-free instantiation, which never calls lost().
  [[nodiscard]] bool active() const noexcept { return loss_ > 0.0 || any_crashed_; }

  /// Down for the whole phase: makes no calls and receives none.
  [[nodiscard]] bool crashed(NodeId v) const noexcept { return crashed_[v] != 0; }

  /// Resolves one call to `dst` (only when active()).
  [[nodiscard]] bool lost(NodeId dst) noexcept {
    return crashed_[dst] != 0 || (loss_ > 0.0 && coin_.next_bernoulli(loss_));
  }

 private:
  std::vector<std::uint8_t> crashed_;  // empty iff !active()
  Rng coin_;
  double loss_;
  bool any_crashed_ = false;
};

}  // namespace drrg::sim
