#pragma once
// Shared synthetic-workload generation and ground-truth computation.
//
// Every consumer of the library -- the CLI, the benchmarks, the examples
// and the tests -- needs the same two ingredients: a deterministic vector
// of per-node values derived from a seed, and the exact aggregate of
// those values over the surviving nodes to compare the protocol's output
// against.  This is the single implementation all of them share (the
// api::Registry adapters call compute_truth for the RunReport's
// truth/error fields).

#include <cstdint>
#include <span>
#include <vector>

namespace drrg::workload {

/// Value interval of the synthetic workload.  The default straddles zero
/// so that sign-sensitive bugs (e.g. in push-sum weights) surface.
struct ValueRange {
  double lo = -25.0;
  double hi = 75.0;
};

/// Strictly positive variant for algorithms that require it (extrema
/// propagation draws exponentials with rate v_i > 0).
[[nodiscard]] constexpr ValueRange positive_range() noexcept { return {1.0, 100.0}; }

/// Deterministic per-node values: node v's value depends only on
/// (seed, v, range).
[[nodiscard]] std::vector<double> make_values(std::uint32_t n, std::uint64_t seed,
                                              ValueRange range = {});

/// Exact aggregates over the participating nodes.
struct Truth {
  double max = 0.0;
  double min = 0.0;
  double sum = 0.0;
  double ave = 0.0;
  double count = 0.0;
  double rank = 0.0;    ///< |{ alive v : values[v] < rank_threshold }|
  double median = 0.0;  ///< lower median of the participating values
};

/// Computes the exact aggregates of `values` restricted to nodes with
/// participating[v] set (an empty mask means every node participates).
[[nodiscard]] Truth compute_truth(std::span<const double> values,
                                  const std::vector<bool>& participating = {},
                                  double rank_threshold = 0.0);

}  // namespace drrg::workload
