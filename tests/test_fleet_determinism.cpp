#include "core/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/resolver.hpp"
#include "core/syn_seeker.hpp"
#include "reference_seek.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// Differential tests for the fleet-scale batch layer: whatever combination
// of thread pool and SYN cache is in play, estimate_batch must return
// exactly what N independent serial SynSeeker+aggregate runs return. No
// tolerance — the batch layer shares the packed kernel with the serial
// path, so any drift is a real bug, not rounding. The kernel itself is
// bounded against the scalar double reference search.

namespace rups::core {
namespace {

constexpr std::size_t kChannels = 30;
constexpr std::size_t kCapacity = 400;

float road_rssi(std::uint64_t road_seed, std::int64_t metre, std::size_t ch) {
  const util::HashNoise chan_noise(road_seed ^ 0xABCDULL);
  const util::LatticeField1D spatial(
      util::hash_combine(road_seed, static_cast<std::uint64_t>(ch)), 8.0, 2);
  const double base =
      -95.0 + 40.0 * chan_noise.uniform(static_cast<std::int64_t>(ch));
  return static_cast<float>(base +
                            6.0 * spatial.value(static_cast<double>(metre)));
}

/// One vehicle's pre-generated drive: context plus the future metres that
/// each round appends, so every engine mode replays identical inputs.
struct VehicleLog {
  std::int64_t road_start = 0;
  std::vector<std::vector<float>> rssi;  // [metre][channel]
};

VehicleLog make_log(std::uint64_t seed, std::size_t vehicle,
                    std::size_t metres) {
  VehicleLog log;
  log.road_start =
      vehicle == 0 ? 0 : static_cast<std::int64_t>(15 + 20 * (vehicle - 1));
  util::Rng rng(seed * 100 + vehicle);
  log.rssi.assign(metres, std::vector<float>(kChannels));
  for (std::size_t i = 0; i < metres; ++i) {
    for (std::size_t c = 0; c < kChannels; ++c) {
      log.rssi[i][c] =
          road_rssi(seed, log.road_start + static_cast<std::int64_t>(i), c) +
          static_cast<float>(rng.gaussian(0.0, 0.5));
    }
  }
  return log;
}

void append_metres(ContextTrajectory& t, const VehicleLog& log,
                   std::size_t from, std::size_t count) {
  for (std::size_t i = from; i < from + count; ++i) {
    PowerVector pv(kChannels);
    for (std::size_t c = 0; c < kChannels; ++c) pv.set(c, log.rssi[i][c]);
    t.append(GeoSample{}, std::move(pv));
  }
}

RupsConfig fleet_rups_config() {
  RupsConfig cfg;
  cfg.channels = kChannels;
  cfg.context_capacity_m = kCapacity;
  cfg.syn.window_m = 40;
  cfg.syn.top_channels = 20;
  cfg.syn.coherency_threshold = 1.2;
  cfg.syn.syn_points = 2;
  cfg.syn.syn_segment_spacing_m = 25;
  return cfg;
}

struct RoundLog {
  std::vector<std::vector<FleetEngine::NeighbourResult>> rounds;
};

/// Replay the fixed drive through a FleetEngine in the given mode.
RoundLog run_fleet(const std::vector<VehicleLog>& logs, std::size_t fleet_n,
                   std::size_t initial_m, std::size_t rounds,
                   std::size_t step_m, bool use_cache,
                   util::ThreadPool* pool) {
  FleetConfig cfg;
  cfg.rups = fleet_rups_config();
  cfg.use_cache = use_cache;
  FleetEngine engine(cfg);

  std::vector<ContextTrajectory> contexts;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    contexts.emplace_back(kChannels, kCapacity);
    append_metres(contexts.back(), logs[v], 0, initial_m);
  }
  std::vector<const ContextTrajectory*> neighbours;
  std::vector<std::uint64_t> ids;
  for (std::size_t v = 1; v < fleet_n + 1; ++v) {
    neighbours.push_back(&contexts[v]);
    ids.push_back(100 + v);
  }

  RoundLog out;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round != 0) {
      const std::size_t from = initial_m + (round - 1) * step_m;
      for (std::size_t v = 0; v < fleet_n + 1; ++v) {
        append_metres(contexts[v], logs[v], from, step_m);
      }
    }
    out.rounds.push_back(engine.estimate_batch(contexts[0], neighbours, ids,
                                               pool));
  }
  return out;
}

/// Reference: per-neighbour serial estimate path (plain SynSeeker + the
/// same aggregation), no packs, no cache, no batch.
RoundLog run_reference(const std::vector<VehicleLog>& logs,
                       std::size_t fleet_n, std::size_t initial_m,
                       std::size_t rounds, std::size_t step_m) {
  const RupsConfig rups = fleet_rups_config();
  const SynSeeker seeker(rups.syn);

  std::vector<ContextTrajectory> contexts;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    contexts.emplace_back(kChannels, kCapacity);
    append_metres(contexts.back(), logs[v], 0, initial_m);
  }

  RoundLog out;
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round != 0) {
      const std::size_t from = initial_m + (round - 1) * step_m;
      for (std::size_t v = 0; v < fleet_n + 1; ++v) {
        append_metres(contexts[v], logs[v], from, step_m);
      }
    }
    std::vector<FleetEngine::NeighbourResult> results;
    for (std::size_t v = 1; v < fleet_n + 1; ++v) {
      FleetEngine::NeighbourResult r;
      r.syn_points = seeker.find(contexts[0], contexts[v]);
      r.estimate = aggregate_estimates(contexts[0], contexts[v], r.syn_points,
                                       rups.aggregation);
      results.push_back(std::move(r));
    }
    out.rounds.push_back(std::move(results));
  }
  return out;
}

void expect_identical(const RoundLog& a, const RoundLog& b,
                      const char* label) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << label;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    ASSERT_EQ(a.rounds[r].size(), b.rounds[r].size()) << label;
    for (std::size_t i = 0; i < a.rounds[r].size(); ++i) {
      const auto& x = a.rounds[r][i];
      const auto& y = b.rounds[r][i];
      ASSERT_EQ(x.estimate.has_value(), y.estimate.has_value())
          << label << " round " << r << " neighbour " << i;
      if (x.estimate.has_value()) {
        EXPECT_EQ(x.estimate->distance_m, y.estimate->distance_m)
            << label << " round " << r << " neighbour " << i;
        EXPECT_EQ(x.estimate->confidence, y.estimate->confidence) << label;
        EXPECT_EQ(x.estimate->syn_count, y.estimate->syn_count) << label;
      }
      ASSERT_EQ(x.syn_points.size(), y.syn_points.size()) << label;
      for (std::size_t s = 0; s < x.syn_points.size(); ++s) {
        EXPECT_EQ(x.syn_points[s].index_a, y.syn_points[s].index_a) << label;
        EXPECT_EQ(x.syn_points[s].index_b, y.syn_points[s].index_b) << label;
        EXPECT_EQ(x.syn_points[s].window_m, y.syn_points[s].window_m)
            << label;
        EXPECT_EQ(x.syn_points[s].correlation, y.syn_points[s].correlation)
            << label;
      }
    }
  }
}

class FleetDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FleetDeterminism, AllModesMatchSerialReferenceExactly) {
  const std::uint64_t seed = GetParam();
  const std::size_t fleet_n = 4;
  const std::size_t initial_m = 150;
  const std::size_t rounds = 6;
  const std::size_t step_m = 4;
  const std::size_t total_m = initial_m + rounds * step_m;

  std::vector<VehicleLog> logs;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    logs.push_back(make_log(seed, v, total_m));
  }

  const RoundLog reference =
      run_reference(logs, fleet_n, initial_m, rounds, step_m);
  // At least some rounds must actually find estimates or the test is
  // vacuous.
  std::size_t estimates = 0;
  for (const auto& round : reference.rounds) {
    for (const auto& r : round) {
      if (r.estimate.has_value()) ++estimates;
    }
  }
  ASSERT_GT(estimates, 0u);

  util::ThreadPool pool(2);
  const RoundLog serial_cold = run_fleet(logs, fleet_n, initial_m, rounds,
                                         step_m, /*use_cache=*/false, nullptr);
  const RoundLog serial_warm = run_fleet(logs, fleet_n, initial_m, rounds,
                                         step_m, /*use_cache=*/true, nullptr);
  const RoundLog pooled_cold = run_fleet(logs, fleet_n, initial_m, rounds,
                                         step_m, /*use_cache=*/false, &pool);
  const RoundLog pooled_warm = run_fleet(logs, fleet_n, initial_m, rounds,
                                         step_m, /*use_cache=*/true, &pool);

  expect_identical(serial_cold, reference, "serial-cold vs reference");
  expect_identical(serial_warm, reference, "serial-warm vs reference");
  expect_identical(pooled_cold, reference, "pooled-cold vs reference");
  expect_identical(pooled_warm, reference, "pooled-warm vs reference");
}

/// SYN points ordered by alignment, so two runs whose near-equal
/// correlations sort differently still compare point by point.
std::vector<SynPoint> by_alignment(std::vector<SynPoint> syns) {
  std::sort(syns.begin(), syns.end(), [](const SynPoint& x, const SynPoint& y) {
    return x.index_a != y.index_a ? x.index_a < y.index_a
                                  : x.index_b < y.index_b;
  });
  return syns;
}

/// The int16 kernel's bounded score error must not leak into the cache's
/// CONTROL FLOW: every per-round alignment decision of the warm fleet
/// (estimate presence, SYN indices, windows) has to be identical to a
/// search scored by the scalar double reference trajectory_correlation()
/// on the same drives; only the correlation VALUES may differ, and only
/// within DESIGN §15's 2e-2 bound.
TEST_P(FleetDeterminism, CacheDecisionsMatchScalarReference) {
  const std::uint64_t seed = GetParam();
  const std::size_t fleet_n = 4;
  const std::size_t initial_m = 150;
  const std::size_t rounds = 6;
  const std::size_t step_m = 4;

  std::vector<VehicleLog> logs;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    logs.push_back(make_log(seed, v, initial_m + rounds * step_m));
  }
  const RoundLog warm = run_fleet(logs, fleet_n, initial_m, rounds, step_m,
                                  /*use_cache=*/true, nullptr);

  const RupsConfig rups = fleet_rups_config();
  const SynSeeker seeker(rups.syn);
  std::vector<ContextTrajectory> contexts;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    contexts.emplace_back(kChannels, kCapacity);
    append_metres(contexts.back(), logs[v], 0, initial_m);
  }
  std::size_t compared = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (r != 0) {
      const std::size_t from = initial_m + (r - 1) * step_m;
      for (std::size_t v = 0; v < fleet_n + 1; ++v) {
        append_metres(contexts[v], logs[v], from, step_m);
      }
    }
    ASSERT_EQ(warm.rounds[r].size(), fleet_n);
    for (std::size_t i = 0; i < fleet_n; ++i) {
      const auto want = by_alignment(
          testing::reference_find(seeker, contexts[0], contexts[i + 1]));
      const auto got = by_alignment(warm.rounds[r][i].syn_points);
      ASSERT_EQ(got.size(), want.size())
          << "round " << r << " neighbour " << i;
      for (std::size_t s = 0; s < want.size(); ++s) {
        EXPECT_EQ(got[s].index_a, want[s].index_a)
            << "round " << r << " neighbour " << i;
        EXPECT_EQ(got[s].index_b, want[s].index_b)
            << "round " << r << " neighbour " << i;
        EXPECT_EQ(got[s].window_m, want[s].window_m)
            << "round " << r << " neighbour " << i;
        EXPECT_NEAR(got[s].correlation, want[s].correlation, 2e-2)
            << "round " << r << " neighbour " << i;
        ++compared;
      }
    }
  }
  // The drives must actually produce SYN points or the parity is vacuous.
  ASSERT_GT(compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetDeterminism,
                         ::testing::Values(11ULL, 29ULL, 73ULL));

TEST(FleetEngine, WarmCacheActuallyTracks) {
  const std::uint64_t seed = 11;
  const std::size_t fleet_n = 3;
  const std::size_t initial_m = 150;
  const std::size_t rounds = 6;
  const std::size_t step_m = 4;
  std::vector<VehicleLog> logs;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    logs.push_back(make_log(seed, v, initial_m + rounds * step_m));
  }

  FleetConfig cfg;
  cfg.rups = fleet_rups_config();
  cfg.use_cache = true;
  FleetEngine engine(cfg);
  std::vector<ContextTrajectory> contexts;
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    contexts.emplace_back(kChannels, kCapacity);
    append_metres(contexts.back(), logs[v], 0, initial_m);
  }
  std::vector<const ContextTrajectory*> neighbours;
  std::vector<std::uint64_t> ids;
  for (std::size_t v = 1; v < fleet_n + 1; ++v) {
    neighbours.push_back(&contexts[v]);
    ids.push_back(v);
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    if (round != 0) {
      const std::size_t from = initial_m + (round - 1) * step_m;
      for (std::size_t v = 0; v < fleet_n + 1; ++v) {
        append_metres(contexts[v], logs[v], from, step_m);
      }
    }
    (void)engine.estimate_batch(contexts[0], neighbours, ids, nullptr);
  }
  const SynCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(engine.shard_count(), fleet_n);
  EXPECT_GT(stats.tracking_hits, 0u);
  EXPECT_GT(stats.queries, 0u);
  // Steady state: after the first (cold) round the tracker should carry
  // most queries.
  EXPECT_GT(stats.tracking_hits, stats.tracking_misses);
}

TEST(FleetEngine, RejectsDuplicateIdsAndSizeMismatch) {
  FleetEngine engine;
  ContextTrajectory ego(kChannels, kCapacity);
  ContextTrajectory n1(kChannels, kCapacity);
  const std::vector<const ContextTrajectory*> two = {&n1, &n1};
  const std::vector<std::uint64_t> dup_ids = {5, 5};
  EXPECT_THROW((void)engine.estimate_batch(ego, two, dup_ids, nullptr),
               std::invalid_argument);
  const std::vector<std::uint64_t> one_id = {5};
  EXPECT_THROW((void)engine.estimate_batch(ego, two, one_id, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace rups::core
