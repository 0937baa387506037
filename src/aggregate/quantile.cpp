#include "aggregate/quantile.hpp"

#include <stdexcept>

#include "support/rng.hpp"

namespace drrg {

QuantileOutcome drr_gossip_quantile(std::uint32_t n, std::span<const double> values,
                                    double q, std::uint64_t seed,
                                    const sim::Scenario& scenario,
                                    const QuantileConfig& config) {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q in [0,1]");

  QuantileOutcome out;
  auto absorb = [&out](const AggregateOutcome& r) {
    out.total += r.metrics.total();
    ++out.pipeline_runs;
  };

  // Every sub-run shares the *same* root seed, so all of them draw the
  // same crash set / fault timeline (a purpose-independent function of the
  // root seed): the model crashes each node at most once, for the whole
  // logical query.  Per-sub-run randomness is decorrelated through the
  // config stream tags instead of fresh root seeds.
  auto sub_config = [&config](std::uint64_t k) {
    return with_stream_salt(config.pipeline, k + 1);
  };

  // Bracket the domain with Min/Max runs, then count participants.
  const AggregateOutcome lo_run = drr_gossip_min(n, values, seed, scenario, sub_config(0));
  const AggregateOutcome hi_run = drr_gossip_max(n, values, seed, scenario, sub_config(1));
  const AggregateOutcome count_run = drr_gossip_count(n, seed, scenario, sub_config(2));
  absorb(lo_run);
  absorb(hi_run);
  absorb(count_run);
  out.participating = count_run.participating;

  double lo = lo_run.value;
  double hi = hi_run.value;
  const double target_rank = q * count_run.value;

  out.value = (lo + hi) / 2.0;
  out.achieved_rank = 0.0;
  for (std::uint32_t it = 0; it < config.iterations && lo < hi; ++it) {
    const double mid = lo + (hi - lo) / 2.0;
    if (mid <= lo || mid >= hi) break;  // domain exhausted (denormal gap)
    const AggregateOutcome rank_run =
        drr_gossip_rank(n, values, mid, seed, scenario, sub_config(3 + it));
    absorb(rank_run);
    out.value = mid;
    out.achieved_rank = rank_run.value;
    if (rank_run.value < target_rank) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return out;
}

QuantileOutcome drr_gossip_median(std::uint32_t n, std::span<const double> values,
                                  std::uint64_t seed, const sim::Scenario& scenario,
                                  const QuantileConfig& config) {
  return drr_gossip_quantile(n, values, 0.5, seed, scenario, config);
}

}  // namespace drrg
