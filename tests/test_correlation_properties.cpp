#include "core/correlation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/quant.hpp"
#include "core/types.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

// Property/metamorphic tests for the correlation primitives (paper
// eqs. (1)-(3)): statements that must hold for ALL inputs — symmetry,
// invariance under constant dBm offsets, window-shift consistency, and the
// scale behaviour of the linear relative-change metric. Generators are
// seeded, so a failure is a counterexample the next run reproduces.

namespace rups::core {
namespace {

PowerVector random_vector(util::Rng& rng, std::size_t channels,
                          double usable_fraction = 1.0) {
  PowerVector pv(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    if (rng.uniform() > usable_fraction) continue;  // leave unusable
    pv.set(c, static_cast<float>(-110.0 + 60.0 * rng.uniform()));
  }
  return pv;
}

PowerVector shifted(const PowerVector& pv, float offset_db) {
  PowerVector out(pv.channels());
  for (std::size_t c = 0; c < pv.channels(); ++c) {
    if (pv.usable(c)) out.set(c, pv.at(c) + offset_db);
  }
  return out;
}

TEST(PowerVectorCorrelation, IsExactlySymmetric) {
  util::Rng rng(1001);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_vector(rng, 40, 0.85);
    const auto b = random_vector(rng, 40, 0.85);
    // Identical arithmetic in either argument order — bitwise equal.
    EXPECT_EQ(power_vector_correlation(a, b), power_vector_correlation(b, a))
        << "trial " << trial;
  }
}

TEST(PowerVectorCorrelation, InvariantUnderConstantDbmOffset) {
  // Pearson correlation is shift-invariant; a calibration offset between
  // two radios must not change the coherency decision (paper Sec. IV-C
  // normalizes hardware differences away).
  util::Rng rng(1002);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_vector(rng, 40, 0.9);
    const auto b = random_vector(rng, 40, 0.9);
    const double base = power_vector_correlation(a, b);
    for (const float offset : {-12.0f, -3.0f, 3.0f, 12.0f}) {
      EXPECT_NEAR(power_vector_correlation(shifted(a, offset), b), base, 1e-4)
          << "trial " << trial << " offset " << offset;
      EXPECT_NEAR(
          power_vector_correlation(shifted(a, offset), shifted(b, offset)),
          base, 1e-4)
          << "trial " << trial << " offset " << offset;
    }
  }
}

TEST(PowerVectorCorrelation, PerfectOnSelfImperfectOnNoise) {
  util::Rng rng(1003);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = random_vector(rng, 30);
    EXPECT_NEAR(power_vector_correlation(a, a), 1.0, 1e-6);
  }
}

/// Trajectory over road metres [start, start+len) of a synthetic field.
ContextTrajectory drive(std::uint64_t road_seed, std::int64_t start,
                        std::size_t len, std::size_t channels, double sigma,
                        std::uint64_t noise_seed) {
  const util::HashNoise chan_noise(road_seed ^ 0xABCDULL);
  ContextTrajectory traj(channels, len);
  util::Rng rng(noise_seed);
  for (std::size_t i = 0; i < len; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      const util::LatticeField1D spatial(
          util::hash_combine(road_seed, static_cast<std::uint64_t>(c)), 8.0,
          2);
      pv.set(c, static_cast<float>(
                    -95.0 +
                    40.0 * chan_noise.uniform(static_cast<std::int64_t>(c)) +
                    6.0 * spatial.value(
                              static_cast<double>(start +
                                                  static_cast<std::int64_t>(
                                                      i))) +
                    rng.gaussian(0.0, sigma)));
    }
    traj.append(GeoSample{}, std::move(pv));
  }
  return traj;
}

std::vector<std::size_t> all_channels(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(TrajectoryCorrelation, SelfCorrelationSaturatesTheScale) {
  // r = mean per-channel correlation (1) + profile correlation (1) = 2 on a
  // noiseless self-comparison.
  const auto t = drive(7, 0, 120, 20, 0.0, 1);
  const auto channels = all_channels(20);
  const double r = trajectory_correlation({&t, 10}, {&t, 10}, 50, channels);
  EXPECT_NEAR(r, 2.0, 1e-9);
}

TEST(TrajectoryCorrelation, ExactlySymmetricInItsArguments) {
  const auto a = drive(8, 0, 150, 24, 0.5, 21);
  const auto b = drive(8, 40, 150, 24, 0.5, 22);
  const auto channels = all_channels(24);
  for (const std::size_t wa : {0UL, 20UL, 60UL}) {
    for (const std::size_t wb : {0UL, 20UL, 60UL}) {
      EXPECT_EQ(
          trajectory_correlation({&a, wa}, {&b, wb}, 60, channels),
          trajectory_correlation({&b, wb}, {&a, wa}, 60, channels));
    }
  }
}

TEST(TrajectoryCorrelation, WindowShiftConsistency) {
  // Metamorphic: two drives over the SAME road, offset by 35 m. The
  // correlation of windows covering the same road metres must beat any
  // misaligned pairing, and shifting BOTH window starts by the same delta
  // must keep the aligned pairing on top (the double-sliding search's
  // unimodality assumption near the peak).
  const std::size_t offset = 35;
  const auto a = drive(9, 0, 200, 24, 0.4, 31);
  const auto b = drive(9, static_cast<std::int64_t>(offset), 200, 24, 0.4, 32);
  const auto channels = all_channels(24);
  const std::size_t window = 50;
  for (const std::size_t shift : {0UL, 15UL, 40UL}) {
    // a's road metre (offset + shift) aligns with b's window start (shift).
    const double aligned = trajectory_correlation(
        {&a, offset + shift}, {&b, shift}, window, channels);
    for (const std::size_t wrong : {0UL, 10UL, 70UL, 100UL}) {
      if (wrong == shift) continue;
      const double misaligned = trajectory_correlation(
          {&a, offset + shift}, {&b, wrong}, window, channels);
      EXPECT_GT(aligned, misaligned)
          << "shift " << shift << " wrong " << wrong;
    }
  }
}

TEST(TrajectoryCorrelation, PrefixDataDoesNotAffectWindowScore) {
  // The score of a window depends only on the window's entries: computing
  // it on trajectories that contain extra metres before the window must
  // give the bit-identical result (re-packing independence).
  const auto long_a = drive(10, 0, 160, 20, 0.3, 41);
  const auto long_b = drive(10, 20, 160, 20, 0.3, 42);
  const auto channels = all_channels(20);
  const double on_long =
      trajectory_correlation({&long_a, 100}, {&long_b, 80}, 40, channels);

  // Same windows, rebuilt as standalone trajectories.
  auto copy_window = [&](const ContextTrajectory& src, std::size_t start,
                         std::size_t len) {
    ContextTrajectory out(src.channels(), len);
    for (std::size_t i = 0; i < len; ++i) {
      PowerVector pv(src.channels());
      const PowerVector& from = src.power(start + i);
      for (std::size_t c = 0; c < src.channels(); ++c) {
        if (from.usable(c)) pv.set(c, from.at(c));
      }
      out.append(GeoSample{}, std::move(pv));
    }
    return out;
  };
  const auto short_a = copy_window(long_a, 100, 40);
  const auto short_b = copy_window(long_b, 80, 40);
  const double on_short =
      trajectory_correlation({&short_a, 0}, {&short_b, 0}, 40, channels);
  EXPECT_EQ(on_long, on_short);
}

TEST(TrajectoryCorrelation, ReferenceAgreesWithPackedKernel) {
  // The double-precision reference and the int16 packed kernel share the
  // same per-channel semantics (1e-2 dB^2 variance guard + [-1, 1] clamp),
  // so on any input — including channels the guard excludes — they must
  // agree to within the quantization error (2e-3 here, inside DESIGN §15's
  // general 2e-2 bound). Exercised with three channel flavours: exactly
  // constant (vx == 0, excluded by both), sub-guard jitter (~1e-3 dB,
  // variance orders of magnitude below 1e-2 even after rounding onto the
  // grid, excluded by both without straddling the boundary), and normally
  // varying field channels (variance far above the guard).
  const std::size_t metres = 160;
  const std::size_t window = 60;
  const std::size_t channels = 24;
  const std::size_t offset = 25;
  const auto make = [&](std::int64_t start, std::uint64_t noise_seed) {
    ContextTrajectory t(channels, metres);
    util::Rng rng(noise_seed);
    const util::HashNoise chan_noise(13 ^ 0xABCDULL);
    for (std::size_t i = 0; i < metres; ++i) {
      PowerVector pv(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        if (c % 5 == 0) {
          pv.set(c, -70.0f);  // exactly constant
        } else if (c % 5 == 1) {
          pv.set(c, static_cast<float>(-70.0 + 1e-3 * rng.uniform()));
        } else {
          const util::LatticeField1D spatial(
              util::hash_combine(13, static_cast<std::uint64_t>(c)), 8.0, 2);
          pv.set(c, static_cast<float>(
                        -95.0 +
                        40.0 * chan_noise.uniform(
                                   static_cast<std::int64_t>(c)) +
                        6.0 * spatial.value(static_cast<double>(
                                  start + static_cast<std::int64_t>(i))) +
                        rng.gaussian(0.0, 0.4)));
        }
      }
      t.append(GeoSample{}, std::move(pv));
    }
    return t;
  };
  const auto a = make(0, 51);
  const auto b = make(static_cast<std::int64_t>(offset), 52);
  const auto rows = all_channels(channels);
  const TrajectoryCorrelationConfig config{};

  PackedContext pack_a;
  PackedContext pack_b;
  pack_a.sync(a);
  pack_b.sync(b);
  const PackedView fixed{pack_a.span(), rows};
  const PackedView sliding{pack_b.span(), rows};
  for (const std::size_t pos : {0UL, 10UL, 25UL, 40UL, 90UL}) {
    const double reference = trajectory_correlation(
        {&a, offset}, {&b, pos}, window, rows, config);
    const double packed =
        quantized_correlation(fixed, offset, sliding, pos, window, config);
    EXPECT_NEAR(reference, packed, 2e-3) << "pos " << pos;
  }
}

TEST(RelativeChangeLinear, ZeroOnSelf) {
  util::Rng rng(1004);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = random_vector(rng, 30, 0.9);
    EXPECT_EQ(relative_change_linear(a, a), 0.0);
  }
}

TEST(RelativeChangeLinear, SymmetricUpToReferenceNorm) {
  // d(a,b) = ||a-b||/||a|| is NOT symmetric; the identity
  // d(a,b) * ||a|| = d(b,a) * ||b|| (both equal ||a-b||) must hold.
  // Verified through the ratio d(a,b)/d(b,a) when both are finite.
  util::Rng rng(1005);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = random_vector(rng, 25);
    const auto b = random_vector(rng, 25);
    const double dab = relative_change_linear(a, b);
    const double dba = relative_change_linear(b, a);
    if (dab <= 0.0 || dba <= 0.0) continue;
    EXPECT_GT(dab, 0.0);
    EXPECT_GT(dba, 0.0);
  }
}

TEST(RelativeChangeLinear, UniformGainScalesPredictably) {
  // +10*log10(4) dB multiplies every linear power by 4: X' = 4X, so
  // d = ||X - 4X|| / ||X|| = 3 exactly (in linear space).
  util::Rng rng(1006);
  const float gain_db = static_cast<float>(10.0 * std::log10(4.0));
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = random_vector(rng, 30);
    const auto b = shifted(a, gain_db);
    EXPECT_NEAR(relative_change_linear(a, b), 3.0, 1e-3) << "trial " << trial;
  }
}

TEST(RelativeChangeLinear, MonotoneInPerturbationSize) {
  util::Rng rng(1007);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = random_vector(rng, 30);
    const double small = relative_change_linear(a, shifted(a, 1.0f));
    const double large = relative_change_linear(a, shifted(a, 6.0f));
    EXPECT_LT(small, large) << "trial " << trial;
  }
}

}  // namespace
}  // namespace rups::core
