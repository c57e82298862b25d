// Per-metre streaming stress of PackedContext::sync: retro-fill (binder
// back-filling interpolated channels behind the head) interleaved with
// append-driven front eviction, one metre at a time — the §17 ingest
// cadence — plus outliers that push the value range off the quantization
// grid and back. At every step the incrementally-maintained int16 pack must
// be bit-identical to a cold pack built from scratch; a missed in-place
// write, a mis-advanced eviction base or a missed requantize shows up as a
// cell or grid mismatch.
// Runs under ASan in the verify matrix, so buffer arithmetic bugs in the
// compaction path fault loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/packed.hpp"
#include "core/types.hpp"
#include "pack_compare.hpp"
#include "util/hash_noise.hpp"

namespace rups {
namespace {

using core::testing::expect_pack_matches_cold;

constexpr std::size_t kChannels = 16;
constexpr std::size_t kCapacity = 64;
/// Binder's default retro-fill reach (max_interpolation_gap_m).
constexpr std::size_t kRetroReach = 40;

[[nodiscard]] float value_at(std::uint64_t metre, std::size_t channel,
                             std::uint32_t salt) {
  util::HashNoise noise(0x5EEDULL + salt);
  return -95.0f + 25.0f * static_cast<float>(noise.uniform(
                              static_cast<std::int64_t>(metre * 131 + channel)));
}

/// Append one metre with a deterministic subset of channels measured.
void append_metre(core::ContextTrajectory& t) {
  const std::uint64_t metre = t.first_metre() + t.size();
  core::PowerVector power(kChannels);
  for (std::size_t c = 0; c < kChannels; ++c) {
    // Leave ~1/3 of slots missing so retro-fill has holes to plug.
    if ((metre + c) % 3 == 0) continue;
    power.set(c, value_at(metre, c, 0), core::ChannelState::kMeasured);
  }
  t.append(core::GeoSample{0.0, static_cast<double>(metre)},
           std::move(power));
}

/// Binder-style retro-fill: plug missing slots with interpolated values on
/// entries up to kRetroReach behind the newest metre.
void retro_fill(core::ContextTrajectory& t, std::uint64_t step) {
  if (t.empty()) return;
  const std::size_t reach = std::min(t.size(), kRetroReach);
  for (std::size_t back = 1; back <= reach; ++back) {
    const std::size_t i = t.size() - back;
    for (std::size_t c = 0; c < kChannels; ++c) {
      // Inspect through power(): only the actual write stamps the entry.
      if (t.power(i).usable(c)) continue;
      // Fill one hole per (step, entry) so changes KEEP arriving on old
      // columns long after they were first packed.
      if ((step + back + c) % 7 != 0) continue;
      t.mutable_power(i).set(c, value_at(t.first_metre() + i, c, 1),
                             core::ChannelState::kInterpolated);
      break;
    }
  }
}

TEST(PackedStream, PerMetreRetroFillAndEvictionStayBitIdenticalToColdPack) {
  core::ContextTrajectory t(kChannels, kCapacity);
  core::PackedContext pack;

  // 600 metres: ~64 metres of pure growth, then steady-state eviction with
  // retro-fill mutating the packed tail EVERY metre.
  for (std::uint64_t step = 0; step < 600; ++step) {
    append_metre(t);
    retro_fill(t, step);
    (void)pack.sync(t);
    ASSERT_TRUE(pack.in_sync_with(t)) << "step " << step;
    expect_pack_matches_cold(pack, t, step);
  }
}

TEST(PackedStream, BurstGrowthBetweenSyncs) {
  core::ContextTrajectory t(kChannels, kCapacity);
  core::PackedContext pack;
  util::HashNoise noise(0xB00);

  // Variable ingest cadence: 1..5 metres land between syncs (a vehicle
  // outrunning its telemetry loop), retro-fill between every append.
  std::uint64_t step = 0;
  while (step < 500) {
    const auto burst =
        1 + static_cast<std::size_t>(
                noise.uniform(static_cast<std::int64_t>(step)) * 4.0);
    for (std::size_t b = 0; b < burst; ++b) {
      append_metre(t);
      retro_fill(t, step + b);
    }
    step += burst;
    (void)pack.sync(t);
    expect_pack_matches_cold(pack, t, step);
  }
}

TEST(PackedStream, InPlaceWritesAtEveryDepthStayBitIdenticalToColdPack) {
  // The binder writes late dwells into ANY retained metre, and its
  // interpolation gap is configurable, so writes can land at any depth.
  // Every step writes one entry, sweeping every depth from the newest
  // entry to the oldest, on the same sync as the append and eviction.
  core::ContextTrajectory t(kChannels, kCapacity);
  core::PackedContext pack;
  std::size_t oldest_writes = 0;
  for (std::uint64_t step = 0; step < 400; ++step) {
    append_metre(t);
    // 37 is coprime to kCapacity: each run of kCapacity steps hits every
    // depth once, on a different metre and with a fresh value each time.
    const std::size_t back =
        1 + static_cast<std::size_t>(step * 37) % kCapacity;
    if (back <= t.size()) {
      const std::size_t i = t.size() - back;
      const std::size_t c = static_cast<std::size_t>(step) % kChannels;
      t.mutable_power(i).set(
          c, value_at(t.first_metre() + i, c, static_cast<std::uint32_t>(step)),
          core::ChannelState::kInterpolated);
      oldest_writes += i == 0;
    }
    (void)pack.sync(t);
    ASSERT_TRUE(pack.in_sync_with(t)) << "step " << step;
    expect_pack_matches_cold(pack, t, step);
  }
  EXPECT_GE(oldest_writes, 5u);
}

TEST(PackedStream, GridExitAndReturnStayBitIdenticalToColdPack) {
  // Every 80th metre carries a +40 dB outlier: appending it moves the value
  // range off the grid (full requantize), and evicting it kCapacity metres
  // later moves the range back (another full requantize). Both directions
  // must land on exactly the cold pack's grid and cells.
  core::ContextTrajectory t(kChannels, kCapacity);
  core::PackedContext pack;
  std::size_t requantizes = 0;
  for (std::uint64_t step = 0; step < 400; ++step) {
    append_metre(t);
    if (step % 80 == 40) {
      t.mutable_power(t.size() - 1)
          .set(step % kChannels, -15.0f, core::ChannelState::kMeasured);
    }
    retro_fill(t, step);
    const core::QuantParams before = pack.params();
    const std::size_t packed = pack.sync(t);
    if (!(pack.params() == before) && step > 0) {
      EXPECT_EQ(packed, t.size()) << "step " << step;
      ++requantizes;
    }
    expect_pack_matches_cold(pack, t, step);
  }
  // Five outliers in, five out (the first arrives before any eviction).
  EXPECT_GE(requantizes, 9u);
}

}  // namespace
}  // namespace rups
