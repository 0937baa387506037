#include "support/workload.hpp"

#include <algorithm>

#include "support/rng.hpp"

namespace drrg::workload {

std::vector<double> make_values(std::uint32_t n, std::uint64_t seed, ValueRange range) {
  Rng rng{derive_seed(seed, 0xbe9c)};
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_uniform(range.lo, range.hi);
  return v;
}

Truth compute_truth(std::span<const double> values,
                    const std::vector<bool>& participating, double rank_threshold) {
  std::vector<double> live;
  live.reserve(values.size());
  for (std::size_t v = 0; v < values.size(); ++v)
    if (participating.empty() || participating[v]) live.push_back(values[v]);
  Truth t;
  if (live.empty()) return t;
  std::sort(live.begin(), live.end());
  t.min = live.front();
  t.max = live.back();
  t.count = static_cast<double>(live.size());
  for (double v : live) {
    t.sum += v;
    if (v < rank_threshold) ++t.rank;
  }
  t.ave = t.sum / t.count;
  t.median = live[live.size() / 2];
  return t;
}

}  // namespace drrg::workload
