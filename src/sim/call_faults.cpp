#include "sim/call_faults.hpp"

namespace drrg::sim {

CallFaults::CallFaults(std::uint32_t n, const RngFactory& rngs, const Scenario& scenario,
                       std::uint64_t purpose)
    : coin_(rngs.engine_stream(derive_seed(purpose, kLossStreamTag))),
      loss_(scenario.faults.loss_prob) {
  if (scenario.faults.crash_fraction <= 0.0) {
    if (loss_ > 0.0) crashed_.assign(n, 0);
    return;
  }
  const FaultTimeline t = full_timeline(n, rngs, scenario.faults);
  const std::uint32_t start = scenario.start_round;
  crashed_.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (t.birth[v] > start || t.death[v] <= start) {
      crashed_[v] = 1;
      any_crashed_ = true;
    }
  }
}

}  // namespace drrg::sim
