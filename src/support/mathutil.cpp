#include "support/mathutil.hpp"

#include <cmath>

namespace drrg {

double log2_clamped(double n) noexcept {
  const double v = std::log2(n);
  return v < 1.0 ? 1.0 : v;
}

double loglog2_clamped(double n) noexcept {
  const double v = std::log2(log2_clamped(n));
  return v < 1.0 ? 1.0 : v;
}

}  // namespace drrg
