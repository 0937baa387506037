#pragma once
// Small integer/real math helpers used throughout the complexity
// accounting: the paper's bounds are expressed in terms of log n and
// log log n, so these appear everywhere in the protocols, benches and
// tests.

#include <cstdint>

namespace drrg {

/// floor(log2(x)) for x >= 1.
[[nodiscard]] constexpr std::uint32_t floor_log2(std::uint64_t x) noexcept {
  std::uint32_t r = 0;
  while (x >>= 1) ++r;
  return r;
}

/// ceil(log2(x)) for x >= 1.
[[nodiscard]] constexpr std::uint32_t ceil_log2(std::uint64_t x) noexcept {
  return x <= 1 ? 0 : floor_log2(x - 1) + 1;
}

/// log2(n) as a real, clamped below at 1 so it can safely appear in
/// denominators of normalised complexity columns for tiny n.
[[nodiscard]] double log2_clamped(double n) noexcept;

/// log2(log2(n)) clamped below at 1 -- the "log log n" of the paper's
/// message bounds.
[[nodiscard]] double loglog2_clamped(double n) noexcept;

/// The DRR probe budget of Algorithm 1: log2(n) - 1 samples, at least 1.
[[nodiscard]] constexpr std::uint32_t drr_probe_budget(std::uint64_t n) noexcept {
  const std::uint32_t lg = ceil_log2(n);
  return lg > 1 ? lg - 1 : 1;
}

/// Number of bits needed to address n nodes (message-size accounting:
/// the model caps messages at O(log n + log s) bits).
[[nodiscard]] constexpr std::uint32_t address_bits(std::uint64_t n) noexcept {
  return ceil_log2(n < 2 ? 2 : n);
}

}  // namespace drrg
