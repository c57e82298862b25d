// Seeded ingest fuzz of the binder-to-pack path: a scanner model with
// dropout bursts (all channels, or a random subset, silent for up to
// 180 m), dwells delivered late by up to 250 m (out of order, some past
// retention), dwells delivered ahead of their metre, and an interpolation
// gap drawn per seed up to 250 m, all through TrajectoryBinder into one
// ContextTrajectory. A long-lived PackedContext is synced after every
// metre and must be bit-identical to a cold pack each time: the binder's
// in-place writes land at any depth, and an exact sync must see every one.
// Runs under ASan in the verify matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/binder.hpp"
#include "core/packed.hpp"
#include "core/types.hpp"
#include "pack_compare.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

namespace rups::core {
namespace {

constexpr std::size_t kChannels = 24;
constexpr std::size_t kCapacity = 160;
constexpr std::uint64_t kMetres = 1200;

float field_dbm(std::uint64_t metre, std::size_t channel) {
  const util::HashNoise noise(0xF1E1D);
  return -100.0f + 45.0f * static_cast<float>(noise.uniform(
                               static_cast<std::int64_t>(metre * 97 + channel)));
}

struct Dwell {
  std::uint64_t deliver_at = 0;  ///< metre before whose binding it arrives
  std::size_t channel = 0;
  double distance_m = 0.0;
  float rssi = 0.0f;
};

struct FuzzStats {
  std::size_t deep_writes = 0;  ///< in-place writes more than 48 m back
  std::size_t max_depth = 0;
};

FuzzStats run_seed(std::uint64_t seed) {
  util::Rng rng(seed);
  TrajectoryBinder::Config config;
  constexpr std::size_t kGaps[] = {20, 40, 120, 250};
  config.max_interpolation_gap_m = kGaps[seed % 4];
  TrajectoryBinder binder(kChannels, config);
  ContextTrajectory t(kChannels, kCapacity);
  PackedContext pack;
  std::vector<Dwell> in_flight;
  std::vector<bool> muted(kChannels, false);
  std::uint64_t burst_left = 0;
  std::size_t sweep = 0;
  FuzzStats stats;

  const auto deliver = [&](const Dwell& d) {
    const std::uint64_t revision = t.revision();
    binder.add_measurement(d.channel, d.distance_m, d.rssi, t);
    if (t.revision() == revision || t.empty()) return;
    const auto depth = static_cast<std::size_t>(t.end_distance_m() -
                                                std::floor(d.distance_m));
    if (depth > 48) ++stats.deep_writes;
    stats.max_depth = std::max(stats.max_depth, depth);
  };

  for (std::uint64_t m = 0; m < kMetres; ++m) {
    // Scanner dropout bursts: everything, or a random subset, goes silent.
    if (burst_left == 0 && rng.bernoulli(0.02)) {
      burst_left = static_cast<std::uint64_t>(rng.uniform_int(5, 180));
      const bool all = rng.bernoulli(0.3);
      for (std::size_t c = 0; c < kChannels; ++c) {
        muted[c] = all || rng.bernoulli(0.5);
      }
    }
    if (burst_left > 0 && --burst_left == 0) muted.assign(kChannels, false);

    // This metre's dwells: on time, late, or ahead of their metre.
    const auto dwells = rng.uniform_int(2, 7);
    for (std::int64_t k = 0; k < dwells; ++k) {
      const std::size_t c = sweep++ % kChannels;
      if (muted[c]) continue;
      Dwell d{m, c, static_cast<double>(m) + rng.uniform(), 0.0f};
      if (rng.bernoulli(0.04)) {
        d.distance_m += static_cast<double>(rng.uniform_int(1, 5));
      }
      d.rssi = field_dbm(static_cast<std::uint64_t>(d.distance_m), c) +
               static_cast<float>(rng.gaussian(0.0, 1.0));
      if (rng.bernoulli(0.2)) {
        d.deliver_at += static_cast<std::uint64_t>(rng.uniform_int(1, 250));
        in_flight.push_back(d);
      } else {
        deliver(d);
      }
    }
    // Late dwells due now, in arrival order (not metre order).
    for (std::size_t i = 0; i < in_flight.size();) {
      if (in_flight[i].deliver_at <= m) {
        deliver(in_flight[i]);
        in_flight[i] = in_flight.back();
        in_flight.pop_back();
      } else {
        ++i;
      }
    }

    binder.bind_metre(m, GeoSample{0.0, static_cast<double>(m)}, t);
    (void)pack.sync(t);
    EXPECT_TRUE(pack.in_sync_with(t)) << "seed " << seed << " metre " << m;
    testing::expect_pack_matches_cold(pack, t, m);
    if (::testing::Test::HasFatalFailure()) return stats;
  }
  return stats;
}

TEST(IngestFuzz, LongLivedPackMatchesColdPackEveryMetre) {
  FuzzStats total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const FuzzStats s = run_seed(seed);
    ASSERT_FALSE(HasFatalFailure());
    total.deep_writes += s.deep_writes;
    total.max_depth = std::max(total.max_depth, s.max_depth);
  }
  // The fuzz must actually reach the depths a fixed suffix would miss.
  EXPECT_GT(total.deep_writes, 1000u);
  EXPECT_GE(total.max_depth, kCapacity - 10);
}

}  // namespace
}  // namespace rups::core
