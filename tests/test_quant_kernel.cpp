#include "core/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/packed.hpp"
#include "core/syn_seeker.hpp"
#include "core/types.hpp"
#include "reference_seek.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

// The int16 kernel's correctness harness (DESIGN §15):
//   * differential sweep — randomized windows/strides/masks/k against the
//     scalar double reference trajectory_correlation(), with the score
//     error bound asserted, the integer accept/reject decisions (overlap,
//     min_channels) required to match EXACTLY, and the argmax of a scan
//     across a genuine peak required to be identical;
//   * determinism — batch calls are memcmp-bit-identical to per-position
//     quantized_correlation at any batch shape or stride;
//   * property suite — quantization round-trip within step/2, exact score
//     invariance under a dBm offset of the whole fleet, and argmax
//     stability under sub-LSB input perturbation;
//   * paper-point gate — at m=1000/w=100/k=45/10% mask the SYN estimate
//     (matched indices and window) is identical between the int16 seek and
//     the scalar reference seek, end to end through SynSeeker.

namespace rups::core {
namespace {

// Asserted differential bound on the eq.(2) score scale [-2, 2]. DESIGN
// §15 derives the first-order bound ~4(1+|r|)·(step/2)/sigma_min per
// Pearson term; the measured sweep maxima are ~1e-3 at the paper point, and
// the constant keeps an order-of-magnitude margin for the adversarial
// shapes below (short windows, heavy masks).
constexpr double kScoreBound = 2e-2;

ContextTrajectory random_context(util::Rng& rng, std::size_t metres,
                                 std::size_t channels, double usable_fraction,
                                 double grid = 0.0) {
  ContextTrajectory t(channels, metres);
  for (std::size_t i = 0; i < metres; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (rng.uniform() > usable_fraction) continue;
      double dbm = -110.0 + 60.0 * rng.uniform();
      if (grid > 0.0) dbm = std::round(dbm / grid) * grid;
      pv.set(c, static_cast<float>(dbm));
    }
    t.append(GeoSample{}, std::move(pv));
  }
  return t;
}

/// `metres` of `src` from `from`, each usable value jittered by N(0, sigma)
/// — a fixed window that genuinely matches one sliding position.
ContextTrajectory noisy_copy(util::Rng& rng, const ContextTrajectory& src,
                             std::size_t from, std::size_t metres,
                             double sigma) {
  ContextTrajectory t(src.channels(), metres);
  for (std::size_t i = 0; i < metres; ++i) {
    PowerVector pv(src.channels());
    for (std::size_t c = 0; c < src.channels(); ++c) {
      if (!src.power(from + i).usable(c)) continue;
      pv.set(c, static_cast<float>(src.power(from + i).at(c) +
                                   rng.gaussian(0.0, sigma)));
    }
    t.append(GeoSample{}, std::move(pv));
  }
  return t;
}

std::vector<std::size_t> identity_rows(std::size_t k) {
  std::vector<std::size_t> rows(k);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  return rows;
}

/// One-shot pack of a whole trajectory plus its identity row map.
struct Operand {
  PackedContext pack;
  std::vector<std::size_t> rows;

  explicit Operand(const ContextTrajectory& t)
      : rows(identity_rows(t.channels())) {
    pack.sync(t);
  }

  [[nodiscard]] PackedView view() const { return {pack.span(), rows}; }
};

void expect_bit_equal(double want, double got, const char* what,
                      std::size_t q) {
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
      << what << " lane " << q << ": want " << want << " got " << got;
}

std::size_t argmax(const std::vector<double>& s) {
  std::size_t best = 0;
  for (std::size_t q = 1; q < s.size(); ++q) {
    if (s[q] > s[best]) best = q;
  }
  return best;
}

TEST(QuantKernel, DifferentialSweepVsReference) {
  util::Rng rng(515);
  const TrajectoryCorrelationConfig config{};
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t channels =
        8 + static_cast<std::size_t>(rng.uniform() * 32.0);
    const std::size_t window =
        17 + static_cast<std::size_t>(rng.uniform() * 100.0);
    const std::size_t stride =
        1 + static_cast<std::size_t>(rng.uniform() * 4.0);
    const double usable = 0.55 + 0.4 * rng.uniform();
    const std::size_t metres = window + 70;
    const auto slide_t = random_context(rng, metres, channels, usable);
    // The fixed window matches one grid position, so the scan crosses a
    // genuine peak whose argmax must survive quantization.
    const std::size_t peak =
        stride * static_cast<std::size_t>(rng.uniform() * 70.0 / stride);
    const auto fixed_t = noisy_copy(rng, slide_t, peak, window, 1.0);
    const Operand fixed(fixed_t);
    const Operand slide(slide_t);
    const auto rows = identity_rows(channels);

    const std::size_t pos_count = (metres - window) / stride + 1;
    std::vector<double> ref(pos_count), s16(pos_count);
    quantized_correlation_batch(fixed.view(), 0, slide.view(), 0, pos_count,
                                window, config, s16.data(), stride);
    for (std::size_t q = 0; q < pos_count; ++q) {
      ref[q] = trajectory_correlation({&fixed_t, 0}, {&slide_t, q * stride},
                                      window, rows, config);
      // Overlap and min_channels decisions are exact integer counts on the
      // shared masks — the "no score" sentinel must agree exactly.
      EXPECT_EQ(ref[q] == -2.0, s16[q] == -2.0) << "trial " << trial;
      if (ref[q] == -2.0) continue;
      EXPECT_NEAR(ref[q], s16[q], kScoreBound)
          << "trial " << trial << " pos " << q;
    }
    EXPECT_EQ(argmax(ref), peak / stride) << "trial " << trial;
    EXPECT_EQ(argmax(s16), argmax(ref)) << "trial " << trial;
  }
}

void expect_batch_matches_scalar(const PackedView& fixed,
                                 const PackedView& sliding,
                                 std::size_t pos_lo, std::size_t pos_count,
                                 std::size_t window, std::size_t stride,
                                 const TrajectoryCorrelationConfig& config,
                                 const char* what) {
  std::vector<double> got(pos_count, 0.0);
  quantized_correlation_batch(fixed, 0, sliding, pos_lo, pos_count, window,
                              config, got.data(), stride);
  for (std::size_t q = 0; q < pos_count; ++q) {
    const double want = quantized_correlation(
        fixed, 0, sliding, pos_lo + q * stride, window, config);
    expect_bit_equal(want, got[q], what, q);
  }
}

TEST(QuantKernel, BatchMatchesPerPositionBitExact) {
  util::Rng rng(9090);
  const TrajectoryCorrelationConfig config{};
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t channels =
        6 + static_cast<std::size_t>(rng.uniform() * 30.0);
    const std::size_t window =
        16 + static_cast<std::size_t>(rng.uniform() * 90.0);
    const std::size_t stride =
        1 + static_cast<std::size_t>(rng.uniform() * 4.0);
    const double usable = 0.4 + 0.55 * rng.uniform();
    // Batch shapes around the block boundary: below, at, above, multi-block
    // with remainder — each must reduce to identical per-position scores.
    const std::size_t shapes[] = {1,
                                  kLagBlock - 1,
                                  kLagBlock,
                                  kLagBlock + 1,
                                  2 * kLagBlock,
                                  2 * kLagBlock + 5};
    const std::size_t pos_count = shapes[trial % 6];
    const std::size_t pos_lo = static_cast<std::size_t>(rng.uniform() * 7.0);
    const std::size_t metres =
        pos_lo + (pos_count - 1) * stride + window + 3;
    const Operand fixed(random_context(rng, window, channels, usable));
    const Operand slide(random_context(rng, metres, channels, usable));
    expect_batch_matches_scalar(fixed.view(), slide.view(), pos_lo,
                                pos_count, window, stride, config, "int16");
  }
}

TEST(QuantKernel, RoundTripWithinHalfStep) {
  util::Rng rng(4242);
  const std::size_t channels = 20;
  const std::size_t metres = 150;
  const auto t = random_context(rng, metres, channels, 0.8);
  const Operand op(t);
  const PackedSpan s = op.pack.span();
  ASSERT_TRUE(std::isfinite(s.params.offset));
  ASSERT_GT(s.params.step, 0.0);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t i = 0; i < metres; ++i) {
      const int q = s.q[c * s.stride + i];
      const int v = s.v[c * s.stride + i];
      const bool usable = t.power(i).usable(c);
      EXPECT_EQ(v, usable ? 1 : 0);
      EXPECT_LE(std::abs(q), kQuantMax);
      if (!usable) {
        EXPECT_EQ(q, 0);
        continue;
      }
      const double back = s.params.offset + q * s.params.step;
      EXPECT_LE(std::abs(back - static_cast<double>(t.power(i).at(c))),
                s.params.step * 0.5 + 1e-9)
          << "channel " << c << " metre " << i;
    }
  }
}

TEST(QuantKernel, DbmOffsetInvarianceExact) {
  // Input values snapped to a 1/64 dB grid so that the +8 dB fleet-wide
  // shift is exact in float; the grid must then absorb the shift exactly
  // (offset moves by 8, step unchanged), making every quantized value — and
  // therefore every score — bitwise identical.
  util::Rng rng(606);
  const std::size_t channels = 30;
  const std::size_t window = 64;
  const std::size_t metres = 180;
  const double delta = 8.0;
  ContextTrajectory base_f = random_context(rng, window, channels, 0.9,
                                            1.0 / 64.0);
  ContextTrajectory base_s = random_context(rng, metres, channels, 0.9,
                                            1.0 / 64.0);
  const auto shift = [&](const ContextTrajectory& t, std::size_t len) {
    ContextTrajectory out(channels, len);
    for (std::size_t i = 0; i < len; ++i) {
      PowerVector pv(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        if (!t.power(i).usable(c)) continue;
        pv.set(c, static_cast<float>(static_cast<double>(t.power(i).at(c)) +
                                     delta));
      }
      out.append(GeoSample{}, std::move(pv));
    }
    return out;
  };
  const Operand f0(base_f);
  const Operand s0(base_s);
  const Operand f1(shift(base_f, window));
  const Operand s1(shift(base_s, metres));
  EXPECT_EQ(f1.pack.params().step, f0.pack.params().step);
  EXPECT_EQ(f1.pack.params().offset, f0.pack.params().offset + delta);
  const TrajectoryCorrelationConfig config{};
  const std::size_t pos_count = metres - window + 1;
  std::vector<double> a(pos_count), b(pos_count);
  quantized_correlation_batch(f0.view(), 0, s0.view(), 0, pos_count, window,
                              config, a.data());
  quantized_correlation_batch(f1.view(), 0, s1.view(), 0, pos_count, window,
                              config, b.data());
  for (std::size_t q = 0; q < pos_count; ++q) {
    expect_bit_equal(a[q], b[q], "dbm-offset", q);
  }
}

TEST(QuantKernel, ArgmaxStableUnderSubLsbPerturbation) {
  // fixed is an exact sub-window of sliding, so the true peak is a sharp
  // perfect-correlation spike; perturbing every input by less than one
  // quantization LSB must not move the argmax.
  util::Rng rng(31337);
  const std::size_t channels = 32;
  const std::size_t window = 80;
  const std::size_t metres = 400;
  const std::size_t true_pos = 211;
  const auto slide_t = random_context(rng, metres, channels, 0.9);
  const auto fixed_t = noisy_copy(rng, slide_t, true_pos, window, 0.0);
  const Operand fixed(fixed_t);
  const Operand slide(slide_t);
  const double step = fixed.pack.params().step;
  const TrajectoryCorrelationConfig config{};
  const std::size_t pos_count = metres - window + 1;
  std::vector<double> scores(pos_count);

  quantized_correlation_batch(fixed.view(), 0, slide.view(), 0, pos_count,
                              window, config, scores.data());
  ASSERT_EQ(argmax(scores), true_pos);

  for (int rep = 0; rep < 5; ++rep) {
    ContextTrajectory noisy(channels, window);
    for (std::size_t i = 0; i < window; ++i) {
      PowerVector pv(channels);
      for (std::size_t c = 0; c < channels; ++c) {
        if (!fixed_t.power(i).usable(c)) continue;
        const double jitter = (rng.uniform() - 0.5) * step;  // < ±LSB/2
        pv.set(c, static_cast<float>(
                      static_cast<double>(fixed_t.power(i).at(c)) + jitter));
      }
      noisy.append(GeoSample{}, std::move(pv));
    }
    const Operand noisy_f(noisy);
    quantized_correlation_batch(noisy_f.view(), 0, slide.view(), 0,
                                pos_count, window, config, scores.data());
    EXPECT_EQ(argmax(scores), true_pos) << "rep " << rep;
  }
}

TEST(QuantKernel, WindowCapEnforced) {
  util::Rng rng(12);
  const std::size_t channels = 4;
  const std::size_t metres = kQuantMaxWindowM + 10;
  const Operand op(random_context(rng, metres, channels, 1.0));
  const TrajectoryCorrelationConfig config{};
  double out = 0.0;
  EXPECT_THROW(quantized_correlation_batch(op.view(), 0, op.view(), 0, 1,
                                           kQuantMaxWindowM + 1, config,
                                           &out),
               std::invalid_argument);
}

/// Synthetic road field shared with test_syn_seeker: deterministic RSSI
/// per (road metre, channel) with structure on both axes.
float road_rssi(std::uint64_t road_seed, std::int64_t metre, std::size_t ch) {
  const util::HashNoise chan_noise(road_seed ^ 0xABCDULL);
  const util::LatticeField1D spatial(
      util::hash_combine(road_seed, static_cast<std::uint64_t>(ch)), 8.0, 2);
  const double base =
      -95.0 + 40.0 * chan_noise.uniform(static_cast<std::int64_t>(ch));
  return static_cast<float>(base +
                            6.0 * spatial.value(static_cast<double>(metre)));
}

ContextTrajectory drive(std::uint64_t road_seed, std::int64_t road_start,
                        std::size_t len, std::size_t channels, double sigma,
                        double usable_fraction, std::uint64_t noise_seed) {
  ContextTrajectory traj(channels, len);
  util::Rng rng(noise_seed);
  for (std::size_t i = 0; i < len; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (rng.uniform() > usable_fraction) continue;
      pv.set(c, road_rssi(road_seed, road_start + static_cast<std::int64_t>(i),
                          c) +
                    static_cast<float>(rng.gaussian(0.0, sigma)));
    }
    traj.append(GeoSample{0.0, static_cast<double>(i)}, std::move(pv));
  }
  return traj;
}

TEST(QuantKernel, PaperPointEstimateIdenticalAcrossPrecisions) {
  // At the paper point (m=1000, w=100, k=45, 10% masked) the SYN estimate —
  // matched indices and window, i.e. the quantity that becomes the
  // relative-distance fix — must be identical between the int16 seek and
  // the scalar double reference seek, end to end through SynSeeker::find.
  const std::size_t m = 1000;
  const auto a = drive(99, 0, m, 45, 0.4, 0.9, 21);
  const auto b = drive(99, 137, m, 45, 0.4, 0.9, 22);
  SynConfig cfg;
  cfg.window_m = 100;
  cfg.top_channels = 45;
  const SynSeeker seeker(cfg);

  const auto got = seeker.find(a, b);
  const auto want = testing::reference_find(seeker, a, b);
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].index_a, want[i].index_a);
    EXPECT_EQ(got[i].index_b, want[i].index_b);
    EXPECT_EQ(got[i].window_m, want[i].window_m);
    EXPECT_NEAR(got[i].correlation, want[i].correlation, kScoreBound);
  }
}

TEST(QuantKernel, SeekerPackedAndFallbackPathsAgree) {
  // The seek must produce the same SYN point whether it runs on
  // caller-maintained packs or packs both sides itself: a pack is a pure
  // function of its trajectory, so the scores are bit-identical.
  const auto a = drive(7, 0, 300, 30, 0.4, 0.9, 5);
  const auto b = drive(7, 60, 300, 30, 0.4, 0.9, 6);
  SynConfig cfg;
  cfg.window_m = 85;
  cfg.top_channels = 30;
  const SynSeeker seeker(cfg);

  PackedContext pa, pb;
  pa.sync(a);
  pb.sync(b);

  const auto packed = seeker.find_one(a, b, 0, &pa, &pb);
  const auto fallback = seeker.find_one(a, b, 0);
  ASSERT_TRUE(packed.has_value());
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(packed->index_a, fallback->index_a);
  EXPECT_EQ(packed->index_b, fallback->index_b);
  EXPECT_EQ(packed->correlation, fallback->correlation);
}

}  // namespace
}  // namespace rups::core
