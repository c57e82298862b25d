#include "core/quant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

// Pins the batched kernel's contract: quantized_correlation_batch (and any
// chunking of a scan into smaller batches) scores each position
// BIT-IDENTICALLY to a per-position quantized_correlation call, across
// randomized window sizes, position strides, row maps (identity,
// channel-id, out-of-range, k > 128), partial usability masks, and
// block-boundary/remainder batch shapes. The determinism guarantees of
// SynSeeker / SynCache / FleetEngine all reduce to this property.

namespace rups::core {
namespace {

ContextTrajectory random_context(util::Rng& rng, std::size_t metres,
                                 std::size_t channels,
                                 double usable_fraction) {
  ContextTrajectory t(channels, metres);
  for (std::size_t i = 0; i < metres; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (rng.uniform() > usable_fraction) continue;  // leave unusable
      pv.set(c, static_cast<float>(-110.0 + 60.0 * rng.uniform()));
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

/// One-shot pack of a trajectory.
PackedContext pack_of(const ContextTrajectory& t) {
  PackedContext p;
  p.sync(t);
  return p;
}

/// memcmp-strict equality: EXPECT_EQ on doubles would already reject any
/// value difference, but byte comparison also pins the sign of zero.
void expect_bit_equal(double want, double got, const char* what,
                      std::size_t q) {
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
      << what << " lane " << q << ": want " << want << " got " << got;
}

void expect_batch_matches_scalar(const PackedView& fixed,
                                 std::size_t fixed_start,
                                 const PackedView& sliding, std::size_t pos_lo,
                                 std::size_t pos_count, std::size_t window,
                                 std::size_t stride,
                                 const TrajectoryCorrelationConfig& config,
                                 const char* what) {
  std::vector<double> got(pos_count, 0.0);
  quantized_correlation_batch(fixed, fixed_start, sliding, pos_lo, pos_count,
                              window, config, got.data(), stride);
  for (std::size_t q = 0; q < pos_count; ++q) {
    const double want = quantized_correlation(
        fixed, fixed_start, sliding, pos_lo + q * stride, window, config);
    expect_bit_equal(want, got[q], what, q);
  }
}

TEST(PackedBatch, RandomizedWindowsStridesMasksAndRemainders) {
  util::Rng rng(2024);
  const TrajectoryCorrelationConfig config{};
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t channels = 8 + static_cast<std::size_t>(
                                         rng.uniform() * 32.0);
    const std::size_t window = 17 + static_cast<std::size_t>(
                                        rng.uniform() * 100.0);
    const std::size_t stride = 1 + static_cast<std::size_t>(
                                       rng.uniform() * 4.0);
    // Batch shapes around the block boundary: below, at, above, and
    // multi-block with a remainder.
    const std::size_t shapes[] = {1,
                                  kLagBlock - 1,
                                  kLagBlock,
                                  kLagBlock + 1,
                                  2 * kLagBlock,
                                  2 * kLagBlock + 5};
    const std::size_t pos_count = shapes[trial % 6];
    const std::size_t pos_lo =
        static_cast<std::size_t>(rng.uniform() * 7.0);
    // Heavily masked trials exercise the excluded-lane (select) path and
    // the -2.0 not-enough-channels sentinel.
    const double usable = (trial % 3 == 0) ? 0.35 : 0.9;
    const std::size_t sliding_metres =
        pos_lo + (pos_count - 1) * stride + window;

    const auto fa = random_context(rng, window + 4, channels, usable);
    const auto sb = random_context(rng, sliding_metres, channels, usable);
    const auto rows = identity_rows(channels);
    const PackedContext fixed_pack = pack_of(fa);
    const PackedContext slide_pack = pack_of(sb);
    expect_batch_matches_scalar({fixed_pack.span(), rows}, 2,
                                {slide_pack.span(), rows}, pos_lo, pos_count,
                                window, stride, config, "randomized");
  }
}

TEST(PackedBatch, ChannelIdRowMapsIncludingOutOfRange) {
  // PackedContext views address rows by CHANNEL ID; ids beyond either
  // pack's width must be skipped identically by batch and scalar paths.
  util::Rng rng(7);
  const std::size_t channels = 36;
  const std::size_t window = 50;
  const auto a = random_context(rng, 120, channels, 0.85);
  const auto b = random_context(rng, 220, channels, 0.85);
  PackedContext pa;
  PackedContext pb;
  pa.sync(a);
  pb.sync(b);

  std::vector<std::size_t> rows;
  for (int k = 0; k < 20; ++k) {
    rows.push_back(static_cast<std::size_t>(rng.uniform() * channels));
  }
  rows.push_back(channels + 3);   // out of range: skipped
  rows.push_back(channels + 40);  // far out of range: skipped
  const TrajectoryCorrelationConfig config{};
  expect_batch_matches_scalar({pa.span(), rows}, 30, {pb.span(), rows}, 0,
                              220 - window + 1, window, 1, config,
                              "channel-id rows");
}

TEST(PackedBatch, WideRowMapBeyond128Channels) {
  util::Rng rng(11);
  const std::size_t channels = 160;  // > the reference's 128 stack slots
  const std::size_t window = 40;
  const auto a = random_context(rng, 90, channels, 0.8);
  const auto b = random_context(rng, 150, channels, 0.8);
  const auto rows = identity_rows(channels);
  const PackedContext fixed_pack = pack_of(a);
  const PackedContext slide_pack = pack_of(b);
  const TrajectoryCorrelationConfig config{};
  expect_batch_matches_scalar({fixed_pack.span(), rows}, 10,
                              {slide_pack.span(), rows}, 0, 150 - window + 1,
                              window, 1, config, "k>128");
}

TEST(PackedBatch, AllLaneWidthsAreBitIdentical) {
  // Chunking: a scan split into batches of 1, 4, 8 or 16 positions (the
  // shapes SynSeeker's pool chunks and overlapped tails produce) must
  // reproduce the single full-scan batch bit-for-bit — exact integer sums
  // never depend on the block shape.
  util::Rng rng(13);
  const std::size_t channels = 30;
  const std::size_t window = 70;
  const std::size_t pos_count = 77;  // multi-block + remainder for all B
  const auto a = random_context(rng, window + 2, channels, 0.9);
  const auto b = random_context(rng, pos_count - 1 + window, channels, 0.9);
  const auto rows = identity_rows(channels);
  const PackedContext fixed_pack = pack_of(a);
  const PackedContext slide_pack = pack_of(b);
  const PackedView fixed{fixed_pack.span(), rows};
  const PackedView sliding{slide_pack.span(), rows};
  const TrajectoryCorrelationConfig config{};

  std::vector<double> want(pos_count, 0.0);
  quantized_correlation_batch(fixed, 0, sliding, 0, pos_count, window,
                              config, want.data());
  for (const std::size_t lanes : {1UL, 4UL, 8UL, 16UL}) {
    std::vector<double> got(pos_count, 0.0);
    for (std::size_t q = 0; q < pos_count; q += lanes) {
      quantized_correlation_batch(fixed, 0, sliding, q,
                                  std::min(lanes, pos_count - q), window,
                                  config, got.data() + q);
    }
    for (std::size_t q = 0; q < pos_count; ++q) {
      expect_bit_equal(want[q], got[q], "lane width", q);
    }
  }
}

}  // namespace
}  // namespace rups::core
