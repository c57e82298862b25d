#include "core/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/packed.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

// Fuzz harness for the int16 pack builder: random, NaN, ±inf and wildly
// out-of-range dBm inputs pushed through one-shot packs AND incremental
// sync cycles must clamp or mask — never UB. Runs in the asan-ubsan
// verify_matrix.sh lane next to test_codec_fuzz, so "no UB" is checked by
// the sanitizers while the assertions below pin the semantics: q on the
// grid, v strictly 0/1, q == 0 wherever v == 0, finite affine params, an
// incremental pack bit-equal to a one-shot pack, and every correlation of
// fuzzed packs finite or the -2 sentinel. A randomized sweep over
// physically plausible inputs additionally tracks the scalar double
// reference trajectory_correlation() within DESIGN §15's bound.

namespace rups::core {
namespace {

float fuzz_dbm(util::Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.05) return std::numeric_limits<float>::quiet_NaN();
  if (roll < 0.10) return std::numeric_limits<float>::infinity();
  if (roll < 0.15) return -std::numeric_limits<float>::infinity();
  if (roll < 0.20) return 3.0e38f;   // near FLT_MAX
  if (roll < 0.25) return -3.0e38f;
  if (roll < 0.30) return static_cast<float>(rng.uniform() * 2e4 - 1e4);
  return static_cast<float>(-200.0 + 300.0 * rng.uniform());  // out of range
}

ContextTrajectory fuzz_context(util::Rng& rng, std::size_t metres,
                               std::size_t channels) {
  ContextTrajectory t(channels, metres);
  for (std::size_t i = 0; i < metres; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (rng.uniform() < 0.2) continue;  // leave missing
      pv.set(c, fuzz_dbm(rng));
    }
    t.append(GeoSample{}, std::move(pv));
  }
  return t;
}

void check_invariants(const PackedSpan& s, const char* what) {
  EXPECT_TRUE(std::isfinite(s.params.offset)) << what;
  EXPECT_TRUE(std::isfinite(s.params.step)) << what;
  EXPECT_GT(s.params.step, 0.0) << what;
  for (std::size_t c = 0; c < s.channels; ++c) {
    for (std::size_t i = 0; i < s.metres; ++i) {
      const int q = s.q[c * s.stride + i];
      const int v = s.v[c * s.stride + i];
      EXPECT_TRUE(v == 0 || v == 1) << what;
      EXPECT_LE(std::abs(q), kQuantMax) << what;
      if (v == 0) {
        EXPECT_EQ(q, 0) << what;
      }
    }
  }
}

TEST(QuantFuzz, OneShotBuildsNeverProduceGarbage) {
  util::Rng rng(0xF00D);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t channels =
        1 + static_cast<std::size_t>(rng.uniform() * 24.0);
    const std::size_t metres =
        4 + static_cast<std::size_t>(rng.uniform() * 200.0);
    const auto t = fuzz_context(rng, metres, channels);
    PackedContext pack;
    pack.sync(t);
    check_invariants(pack.span(), "one-shot");
    // Non-finite inputs must be masked invalid even where the trajectory
    // marks the entry usable.
    const PackedSpan s = pack.span();
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t i = 0; i < metres; ++i) {
        if (!std::isfinite(t.power(i).at(c))) {
          EXPECT_EQ(s.v[c * s.stride + i], 0);
        }
      }
    }
  }
}

TEST(QuantFuzz, SyncCyclesStayOnGrid) {
  util::Rng rng(0xBEEF);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t channels = 12;
    ContextTrajectory t(channels, 160);
    PackedContext pack;
    for (int round = 0; round < 12; ++round) {
      // Grow by a fuzzed stretch, then sync; eviction kicks in once the
      // trajectory wraps its capacity.
      const std::size_t grow =
          1 + static_cast<std::size_t>(rng.uniform() * 40.0);
      for (std::size_t g = 0; g < grow; ++g) {
        PowerVector pv(channels);
        for (std::size_t c = 0; c < channels; ++c) {
          if (rng.uniform() < 0.15) continue;
          pv.set(c, fuzz_dbm(rng));
        }
        t.append(GeoSample{}, std::move(pv));
      }
      pack.sync(t);
      ASSERT_TRUE(pack.in_sync_with(t));
      check_invariants(pack.span(), "sync");
      // Whatever the fuzzed values did to the grid, the incremental pack
      // is the one-shot pack of the same trajectory.
      PackedContext cold;
      cold.sync(t);
      const PackedSpan a = pack.span();
      const PackedSpan b = cold.span();
      ASSERT_EQ(a.params, b.params) << "round " << round;
      for (std::size_t c = 0; c < channels; ++c) {
        for (std::size_t i = 0; i < a.metres; ++i) {
          ASSERT_EQ(a.q[c * a.stride + i], b.q[c * b.stride + i]);
          ASSERT_EQ(a.v[c * a.stride + i], b.v[c * b.stride + i]);
        }
      }
    }
  }
}

TEST(QuantFuzz, FuzzedCorrelationsFiniteOrSentinel) {
  util::Rng rng(0xCAFE);
  const TrajectoryCorrelationConfig config{};
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t channels = 10;
    const std::size_t window =
        8 + static_cast<std::size_t>(rng.uniform() * 60.0);
    const std::size_t metres = window + 50;
    PackedContext fpack;
    PackedContext spack;
    fpack.sync(fuzz_context(rng, window, channels));
    spack.sync(fuzz_context(rng, metres, channels));
    std::vector<std::size_t> ids(channels);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    const std::size_t pos_count = metres - window + 1;
    std::vector<double> scores(pos_count);
    quantized_correlation_batch({fpack.span(), ids}, 0, {spack.span(), ids},
                                0, pos_count, window, config, scores.data());
    for (std::size_t q = 0; q < pos_count; ++q) {
      EXPECT_TRUE(std::isfinite(scores[q])) << "pos " << q;
      // The profile Pearson term is not clamped, so allow an ulp of
      // rounding headroom around the mathematical [-2, 2] range.
      EXPECT_GE(scores[q], -2.0 - 1e-9) << "pos " << q;
      EXPECT_LE(scores[q], 2.0 + 1e-9) << "pos " << q;
    }
  }
}

TEST(QuantFuzz, PlausibleInputsTrackScalarReference) {
  // Randomized shapes, masks and dBm ranges (a weak -120 dBm floor up to
  // strong +10 dBm outliers) with a genuine peak in every scan: the int16
  // score stays within DESIGN §15's bound of the double reference, the
  // "no score" sentinel agrees exactly, and the argmax is identical.
  util::Rng rng(0xD1FF);
  const TrajectoryCorrelationConfig config{};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t channels =
        6 + static_cast<std::size_t>(rng.uniform() * 40.0);
    const std::size_t window =
        12 + static_cast<std::size_t>(rng.uniform() * 110.0);
    const std::size_t metres =
        window + 16 + static_cast<std::size_t>(rng.uniform() * 120.0);
    const double usable = 0.3 + 0.7 * rng.uniform();
    const double lo = -120.0 + 40.0 * rng.uniform();
    const double span = 5.0 + 125.0 * rng.uniform();
    ContextTrajectory st(channels, metres);
    for (std::size_t i = 0; i < metres; ++i) {
      PowerVector pv(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        if (rng.uniform() > usable) continue;
        pv.set(c, static_cast<float>(lo + span * rng.uniform()));
      }
      st.append(GeoSample{}, std::move(pv));
    }
    const std::size_t peak = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(metres - window));
    ContextTrajectory ft(channels, window);
    for (std::size_t i = 0; i < window; ++i) {
      PowerVector pv(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        if (!st.power(peak + i).usable(c)) continue;
        pv.set(c, static_cast<float>(st.power(peak + i).at(c) +
                                     rng.gaussian(0.0, 0.02 * span)));
      }
      ft.append(GeoSample{}, std::move(pv));
    }
    PackedContext fpack;
    PackedContext spack;
    fpack.sync(ft);
    spack.sync(st);
    std::vector<std::size_t> ids(channels);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    const std::size_t pos_count = metres - window + 1;
    std::vector<double> got(pos_count);
    quantized_correlation_batch({fpack.span(), ids}, 0, {spack.span(), ids},
                                0, pos_count, window, config, got.data());
    std::size_t best_ref = 0;
    std::size_t best_got = 0;
    std::vector<double> ref(pos_count);
    for (std::size_t q = 0; q < pos_count; ++q) {
      ref[q] = trajectory_correlation({&ft, 0}, {&st, q}, window, ids, config);
      EXPECT_EQ(ref[q] == -2.0, got[q] == -2.0)
          << "trial " << trial << " pos " << q;
      if (ref[q] != -2.0) {
        EXPECT_NEAR(got[q], ref[q], 2e-2) << "trial " << trial << " pos " << q;
      }
      if (ref[q] > ref[best_ref]) best_ref = q;
      if (got[q] > got[best_got]) best_got = q;
    }
    // A mask too sparse to score the match leaves no peak to find.
    if (ref[peak] == -2.0) continue;
    EXPECT_EQ(best_ref, peak) << "trial " << trial;
    EXPECT_EQ(best_got, peak) << "trial " << trial;
  }
}

}  // namespace
}  // namespace rups::core
