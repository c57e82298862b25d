#pragma once

// Bitwise comparison of an incrementally synced PackedContext against a
// cold pack of the same trajectory: same range, same grid, same int16
// cells. The streaming and ingest-fuzz suites call it after every sync.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/packed.hpp"
#include "core/types.hpp"

namespace rups::core::testing {

inline void expect_pack_matches_cold(const PackedContext& incremental,
                                     const ContextTrajectory& t,
                                     std::uint64_t step) {
  PackedContext cold;
  (void)cold.sync(t);
  const PackedSpan a = incremental.span();
  const PackedSpan b = cold.span();
  ASSERT_EQ(a.metres, b.metres) << "step " << step;
  ASSERT_EQ(a.channels, b.channels) << "step " << step;
  ASSERT_EQ(incremental.first_metre(), cold.first_metre()) << "step " << step;
  // Bitwise grid comparison: a stale grid is usually a SMALL drift,
  // exactly what tolerance-based checks miss.
  ASSERT_EQ(std::memcmp(&a.params, &b.params, sizeof(a.params)), 0)
      << "grid stale at step " << step;
  for (std::size_t c = 0; c < a.channels; ++c) {
    for (std::size_t m = 0; m < a.metres; ++m) {
      ASSERT_EQ(a.q[c * a.stride + m], b.q[c * b.stride + m])
          << "q stale at step " << step << " ch " << c << " m " << m;
      ASSERT_EQ(a.v[c * a.stride + m], b.v[c * b.stride + m])
          << "v stale at step " << step << " ch " << c << " m " << m;
    }
  }
}

}  // namespace rups::core::testing
