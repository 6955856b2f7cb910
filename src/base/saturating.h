#ifndef ONTOREW_BASE_SATURATING_H_
#define ONTOREW_BASE_SATURATING_H_

#include <cstdint>
#include <limits>

// Non-negative counts that saturate at INT64_MAX instead of overflowing:
// the implied flat size of a factored rewriting (a product of per-slot
// widths) overflows any fixed-width count by design.

namespace ontorew {

inline std::int64_t SatMul(std::int64_t a, std::int64_t b) {
  if (a != 0 && b > std::numeric_limits<std::int64_t>::max() / a) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return a * b;
}

inline std::int64_t SatAdd(std::int64_t a, std::int64_t b) {
  if (b > std::numeric_limits<std::int64_t>::max() - a) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return a + b;
}

}  // namespace ontorew

#endif  // ONTOREW_BASE_SATURATING_H_
