#include "core/packed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/engine.hpp"
#include "core/syn_seeker.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

// Pins the packed-window reuse contract: a PackedContext kept in sync
// incrementally (appends, retro-fills, evictions, grid exits) must be
// bit-equal to a one-shot pack of the same trajectory — same grid, same
// int16 cells — and a SYN search fed pre-synced packs must return
// BIT-IDENTICAL results to a search that packs both sides itself. The
// engine's pack-reuse fast path and SynCache's tracking mode both stand on
// these two properties.

namespace rups::core {
namespace {

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
                        std::size_t len, std::size_t channels,
                        std::size_t capacity, std::uint64_t noise_seed) {
  ContextTrajectory traj(channels, capacity);
  util::Rng rng(noise_seed);
  for (std::size_t i = 0; i < len; ++i) {
    PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      pv.set(c, road_rssi(road_seed, road_start + static_cast<std::int64_t>(i),
                          c) +
                    static_cast<float>(rng.gaussian(0.0, 0.5)));
    }
    traj.append(GeoSample{}, std::move(pv));
  }
  return traj;
}

void append_one(ContextTrajectory& t, std::uint64_t road_seed,
                std::int64_t road_start, util::Rng& rng) {
  PowerVector pv(t.channels());
  const auto metre = road_start + static_cast<std::int64_t>(t.first_metre()) +
                     static_cast<std::int64_t>(t.size());
  for (std::size_t c = 0; c < t.channels(); ++c) {
    pv.set(c, road_rssi(road_seed, metre, c) +
                  static_cast<float>(rng.gaussian(0.0, 0.5)));
  }
  t.append(GeoSample{}, std::move(pv));
}

/// Bit-equality of a pack against a one-shot pack of the trajectory it
/// claims to mirror, plus the one-shot pack's fidelity: every usable value
/// decodes to within half a grid step, every other cell is (q, v) = (0, 0).
void expect_pack_matches(const PackedContext& pack,
                         const ContextTrajectory& t) {
  ASSERT_TRUE(pack.in_sync_with(t));
  PackedContext fresh;
  fresh.sync(t);
  const PackedSpan s = pack.span();
  const PackedSpan f = fresh.span();
  ASSERT_EQ(s.metres, t.size());
  ASSERT_EQ(s.channels, t.channels());
  ASSERT_EQ(s.params, f.params);
  for (std::size_t c = 0; c < s.channels; ++c) {
    for (std::size_t i = 0; i < s.metres; ++i) {
      const int q = s.q[c * s.stride + i];
      const int v = s.v[c * s.stride + i];
      EXPECT_EQ(q, f.q[c * f.stride + i]) << "channel " << c << " metre " << i;
      EXPECT_EQ(v, f.v[c * f.stride + i]) << "channel " << c << " metre " << i;
      const PowerVector& pv = t.power(i);
      if (c < pv.channels() && pv.usable(c)) {
        const double back = s.params.offset + q * s.params.step;
        EXPECT_LE(std::abs(back - static_cast<double>(pv.at(c))),
                  0.5 * s.params.step + 1e-9)
            << "channel " << c << " metre " << i;
        EXPECT_EQ(v, 1);
      } else {
        EXPECT_EQ(q, 0);
        EXPECT_EQ(v, 0);
      }
    }
  }
}

TEST(PackedContext, IncrementalAppendMatchesFreshPack) {
  auto t = drive(1, 0, 120, 24, 400, 7);
  PackedContext incremental;
  incremental.sync(t);
  expect_pack_matches(incremental, t);

  util::Rng rng(99);
  for (int step = 0; step < 40; ++step) {
    append_one(t, 1, 0, rng);
    incremental.sync(t);
    expect_pack_matches(incremental, t);
  }
}

TEST(PackedContext, RetroFillRepacksExactlyTheWrittenColumns) {
  auto t = drive(2, 0, 100, 16, 200, 11);
  PackedContext pack;
  pack.sync(t);

  // Simulate the binder's retro-interpolation: rewrite RSSI on 30 entries
  // spread over the whole context, the oldest included, then sync again.
  for (std::size_t k = 0; k < 30; ++k) {
    PowerVector& pv = t.mutable_power(k * (t.size() - 1) / 29);
    pv.set(3, pv.at(3) - 0.25f);
  }
  const QuantParams before = pack.params();
  const std::size_t packed = pack.sync(t);
  EXPECT_EQ(packed, pack.params() == before ? 30u : t.size());
  expect_pack_matches(pack, t);
}

TEST(PackedContext, SyncWithNothingWrittenPacksNothing) {
  auto t = drive(2, 0, 100, 16, 200, 11);
  PackedContext pack;
  EXPECT_EQ(pack.sync(t), t.size());
  EXPECT_EQ(pack.sync(t), 0u);
  expect_pack_matches(pack, t);
}

TEST(PackedContext, OneInPlaceWriteRepacksOneColumn) {
  auto t = drive(2, 0, 100, 16, 200, 11);
  PackedContext pack;
  pack.sync(t);
  const QuantParams grid = pack.params();
  // In range (a copy of an existing value): the grid cannot move.
  t.mutable_power(0).set(5, t.power(50).at(5));
  // The write adds no metres, yet the pack no longer mirrors `t`.
  EXPECT_FALSE(pack.in_sync_with(t));
  EXPECT_EQ(pack.sync(t), 1u);
  EXPECT_EQ(pack.params(), grid);
  expect_pack_matches(pack, t);

  // Out of range: the grid moves and every column is requantized.
  t.mutable_power(40).set(5, -5.0f);
  EXPECT_EQ(pack.sync(t), t.size());
  EXPECT_FALSE(pack.params() == grid);
  expect_pack_matches(pack, t);
}

TEST(PackedContext, EditedCopyNeverReusesStaleColumns) {
  // A copy shares its source's stamps and revision but is another
  // trajectory: a pack moving between the two must not trust either.
  auto t = drive(2, 0, 100, 16, 200, 11);
  ContextTrajectory copy = t;
  copy.mutable_power(10).set(2, copy.power(60).at(2));
  PackedContext pack;
  pack.sync(t);
  EXPECT_FALSE(pack.in_sync_with(copy));
  EXPECT_EQ(pack.sync(copy), copy.size());
  expect_pack_matches(pack, copy);

  // Edit the source the same number of times: equal revisions, other
  // entries. Back on the source, the pack must repack in full again.
  t.mutable_power(20).set(2, t.power(70).at(2));
  ASSERT_EQ(t.revision(), copy.revision());
  EXPECT_FALSE(pack.in_sync_with(t));
  EXPECT_EQ(pack.sync(t), t.size());
  expect_pack_matches(pack, t);
}

TEST(PackedContext, EvictionAndCapacityWrapStayInSync) {
  const std::size_t capacity = 150;
  auto t = drive(3, 0, 100, 12, capacity, 13);
  PackedContext pack;
  pack.sync(t);

  // Drive far past capacity so the ring evicts from the front repeatedly.
  util::Rng rng(5);
  for (int step = 0; step < 200; ++step) {
    append_one(t, 3, 0, rng);
    pack.sync(t);
    if (step % 50 == 0) expect_pack_matches(pack, t);
  }
  expect_pack_matches(pack, t);
  EXPECT_GT(t.first_metre(), 0u);
}

TEST(PackedContext, WidthChangeForcesConsistentRepack) {
  auto t16 = drive(4, 0, 80, 16, 200, 17);
  auto t24 = drive(4, 0, 80, 24, 200, 17);
  PackedContext pack;
  pack.sync(t16);
  expect_pack_matches(pack, t16);
  pack.sync(t24);  // channel-count change: full repack
  expect_pack_matches(pack, t24);
  EXPECT_FALSE(pack.in_sync_with(t16));
}

TEST(PackedContext, GridExitRequantizesEveryColumn) {
  auto t = drive(5, 0, 120, 16, 400, 19);
  PackedContext pack;
  pack.sync(t);
  const QuantParams before = pack.params();

  // A metre that repeats an existing one keeps the value range, hence the
  // grid: only the new column is packed.
  t.append(GeoSample{}, PowerVector(t.power(0)));
  EXPECT_EQ(pack.sync(t), 1u);
  EXPECT_EQ(pack.params(), before);
  expect_pack_matches(pack, t);

  // A value far above the road's range leaves the grid: every column is
  // requantized onto the new grid.
  PowerVector loud(t.power(1));
  loud.set(2, -10.0f);
  t.append(GeoSample{}, std::move(loud));
  EXPECT_EQ(pack.sync(t), t.size());
  EXPECT_FALSE(pack.params() == before);
  expect_pack_matches(pack, t);
}

TEST(PackedContext, RowSubsetPackMatchesFullPackOnItsRows) {
  // A seek packs a side it was not given only on the rows its plans read;
  // those rows must be bit-equal to a full pack's (same grid), the pack
  // never counts as in sync (other rows are unpacked), and the next sync
  // must repack every row.
  auto t = drive(6, 0, 150, 20, 400, 23);
  PackedContext full;
  full.sync(t);
  const std::vector<std::size_t> rows = {1, 4, 5, 11, 19};
  PackedContext subset;
  subset.pack_rows(t, rows);
  EXPECT_FALSE(subset.in_sync_with(t));
  const PackedSpan s = subset.span();
  const PackedSpan f = full.span();
  ASSERT_EQ(s.params, f.params);
  for (const std::size_t c : rows) {
    for (std::size_t i = 0; i < s.metres; ++i) {
      EXPECT_EQ(s.q[c * s.stride + i], f.q[c * f.stride + i]);
      EXPECT_EQ(s.v[c * s.stride + i], f.v[c * f.stride + i]);
    }
  }
  EXPECT_EQ(subset.sync(t), t.size());
  expect_pack_matches(subset, t);
}

SynConfig small_config() {
  SynConfig cfg;
  cfg.window_m = 40;
  cfg.top_channels = 20;
  cfg.coherency_threshold = 1.2;
  return cfg;
}

TEST(PackedSearch, RowSubsetPackForOtherRowsIsRepackedNotRead) {
  // A caller's pack_rows() pack holds only its own rows. Handed to a seek
  // whose plan reads other rows, it must be repacked, never read. Its
  // buffer first held a full pack of another road, so a read of an
  // unpacked row would score that road's values.
  const auto a = drive(21, 0, 260, 60, 400, 31);
  const auto b = drive(21, 45, 260, 60, 400, 32);
  const SynSeeker seeker(small_config());
  const SynSeeker::SeekPlan plan = seeker.plan(a, b, 0);
  ASSERT_EQ(plan.reject, nullptr);
  std::vector<std::size_t> other_rows;
  for (std::size_t c = 0; c < a.channels(); ++c) {
    const auto reads = [c](const std::vector<std::size_t>& v) {
      return std::find(v.begin(), v.end(), c) != v.end();
    };
    if (!reads(plan.channels_a) && !reads(plan.channels_b)) {
      other_rows.push_back(c);
    }
  }
  ASSERT_FALSE(other_rows.empty());

  PackedContext pa;
  pa.sync(drive(77, 0, 260, 60, 400, 5));
  pa.pack_rows(a, other_rows);
  ASSERT_FALSE(pa.in_sync_with(a));

  const auto plain = seeker.find_one(a, b, 0);
  const auto given = seeker.find_one(a, b, 0, &pa, nullptr);
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(given.has_value());
  EXPECT_EQ(plain->index_a, given->index_a);
  EXPECT_EQ(plain->index_b, given->index_b);
  EXPECT_EQ(plain->correlation, given->correlation);
}

TEST(PackedSearch, PackedAndUnpackedSearchesAreBitIdentical) {
  // Caller-maintained packs and the packs a seek builds for itself must
  // score every window identically — the determinism guarantees of
  // FleetEngine/SynCache rest on this.
  const auto a = drive(21, 0, 260, 30, 400, 31);
  const auto b = drive(21, 45, 260, 30, 400, 32);
  SynConfig cfg = small_config();
  cfg.syn_points = 3;
  cfg.syn_segment_spacing_m = 30;
  const SynSeeker seeker(cfg);

  PackedContext pa;
  PackedContext pb;
  pa.sync(a);
  pb.sync(b);

  const auto plain = seeker.find(a, b);
  const auto packed = seeker.find(a, b, &pa, &pb);
  ASSERT_EQ(plain.size(), packed.size());
  ASSERT_FALSE(plain.empty());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].index_a, packed[i].index_a);
    EXPECT_EQ(plain[i].index_b, packed[i].index_b);
    EXPECT_EQ(plain[i].window_m, packed[i].window_m);
    EXPECT_EQ(plain[i].correlation, packed[i].correlation);  // bit-exact
  }

  // Mixed: only one side packed must also match.
  const auto mixed_a = seeker.find(a, b, &pa, nullptr);
  const auto mixed_b = seeker.find(a, b, nullptr, &pb);
  ASSERT_EQ(mixed_a.size(), plain.size());
  ASSERT_EQ(mixed_b.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].correlation, mixed_a[i].correlation);
    EXPECT_EQ(plain[i].correlation, mixed_b[i].correlation);
  }
}

TEST(PackedSearch, StalePackIsIgnoredNotTrusted) {
  auto a = drive(22, 0, 200, 24, 400, 41);
  const auto b = drive(22, 30, 200, 24, 400, 42);
  const SynSeeker seeker(small_config());

  PackedContext stale;
  stale.sync(a);
  util::Rng rng(6);
  append_one(a, 22, 0, rng);  // grow a: the pack is now out of date

  const auto with_stale = seeker.find_one(a, b, 0, &stale, nullptr);
  const auto without = seeker.find_one(a, b);
  ASSERT_EQ(with_stale.has_value(), without.has_value());
  if (with_stale.has_value()) {
    EXPECT_EQ(with_stale->index_a, without->index_a);
    EXPECT_EQ(with_stale->index_b, without->index_b);
    EXPECT_EQ(with_stale->correlation, without->correlation);
  }
}

TEST(PackedSearch, EngineGrowingContextMatchesScratchSeeker) {
  // The RupsEngine keeps one PackedContext across queries and extends it by
  // the metres driven in between; every query must still equal a scratch
  // SynSeeker run on the same contexts (the pack-reuse fix this pins).
  const std::size_t channels = 24;
  auto local = drive(23, 0, 180, channels, 400, 51);
  const auto neighbour = drive(23, 35, 220, channels, 400, 52);

  SynConfig cfg = small_config();
  PackedContext pack;
  const SynSeeker seeker(cfg);
  util::Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    for (int m = 0; m < 3; ++m) append_one(local, 23, 0, rng);
    pack.sync(local);  // same call pattern as RupsEngine::find_syn_points
    const auto reused = seeker.find(local, neighbour, &pack, nullptr);
    const auto scratch = SynSeeker(cfg).find(local, neighbour);
    ASSERT_EQ(reused.size(), scratch.size()) << "round " << round;
    for (std::size_t i = 0; i < reused.size(); ++i) {
      EXPECT_EQ(reused[i].index_a, scratch[i].index_a);
      EXPECT_EQ(reused[i].index_b, scratch[i].index_b);
      EXPECT_EQ(reused[i].correlation, scratch[i].correlation);
    }
  }
}

}  // namespace
}  // namespace rups::core
