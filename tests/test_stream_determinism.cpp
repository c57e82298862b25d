// Streaming determinism: feeding context one metre at a time through
// stream::StreamingEngine (warm SynCache re-verification on every update)
// must land on BIT-IDENTICAL estimates, at every checkpoint, to a cold
// batch reference that runs the full SYN search over the same trajectories
// — across seeds, and serial vs pooled. This is the §17 contract that lets
// the streaming path replace the round path without changing answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/fleet.hpp"
#include "sim/service_sim.hpp"
#include "stream/stream_engine.hpp"
#include "util/thread_pool.hpp"

namespace rups {
namespace {

constexpr std::size_t kNeighbours = 3;
constexpr std::size_t kRounds = 10;
constexpr std::size_t kWarmupRounds = 3;

sim::CityFleetConfig city_config(std::uint64_t seed) {
  sim::CityFleetConfig cfg;
  cfg.vehicles = kNeighbours + 1;
  cfg.channels = 24;
  cfg.context_capacity_m = 200;
  cfg.spacing_m = 18.0;
  cfg.seed = seed;
  return cfg;
}

/// One checkpoint = the per-neighbour estimate state at a round boundary.
struct Checkpoint {
  std::vector<bool> has;
  std::vector<double> distance_m;
  std::vector<double> confidence;
  std::vector<std::size_t> syn_count;

  friend bool operator==(const Checkpoint&, const Checkpoint&) = default;
};

/// Overwrite `out` with the estimates this update carried. Merged across a
/// round's updates, each neighbour's entry ends up from its LAST update of
/// the round — which runs once both its view and the ego context hold the
/// complete round (vehicles with fewer metres this round stop growing
/// early, but keep being re-estimated while the ego grows).
void merge(const stream::StreamingEngine::Update& update,
           const std::vector<std::uint64_t>& ids, Checkpoint& out) {
  for (std::size_t j = 0; j < update.ids.size(); ++j) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (update.ids[j] != ids[i]) continue;
      const auto& nr = update.results[j];
      out.has[i] = nr.estimate.has_value();
      out.distance_m[i] = out.has[i] ? nr.estimate->distance_m : 0.0;
      out.confidence[i] = out.has[i] ? nr.estimate->confidence : 0.0;
      out.syn_count[i] = out.has[i] ? nr.estimate->syn_count : 0;
    }
  }
}

/// Drive a CityFleet per metre through a StreamingEngine in ideal ingest
/// mode; record a checkpoint at the end of every post-warmup round.
std::vector<Checkpoint> run_streaming(std::uint64_t seed,
                                      util::ThreadPool* pool) {
  const sim::CityFleetConfig ccfg = city_config(seed);
  sim::CityFleet city(ccfg);

  stream::StreamConfig scfg;
  scfg.fleet.rups.channels = ccfg.channels;
  scfg.fleet.rups.context_capacity_m = ccfg.context_capacity_m;
  stream::StreamingEngine engine(scfg);

  std::vector<std::uint64_t> ids;
  for (std::size_t i = 1; i <= kNeighbours; ++i) {
    ids.push_back(city.vehicle_id(i));
    engine.add_neighbour(city.vehicle_id(i));
  }

  std::vector<core::ContextTrajectory> trajs;
  trajs.reserve(kNeighbours + 1);
  for (std::size_t i = 0; i <= kNeighbours; ++i) {
    trajs.emplace_back(ccfg.channels, ccfg.context_capacity_m);
  }
  std::vector<const core::ContextTrajectory*> senders;
  for (std::size_t i = 1; i <= kNeighbours; ++i) senders.push_back(&trajs[i]);

  std::vector<Checkpoint> checkpoints;
  for (std::size_t r = 0; r < kRounds; ++r) {
    city.advance_round();
    std::size_t max_steps = 0;
    for (std::size_t i = 0; i <= kNeighbours; ++i) {
      max_steps = std::max(max_steps, city.samples(i).size());
    }
    Checkpoint cp;
    cp.has.assign(ids.size(), false);
    cp.distance_m.assign(ids.size(), 0.0);
    cp.confidence.assign(ids.size(), 0.0);
    cp.syn_count.assign(ids.size(), 0);
    for (std::size_t s = 0; s < max_steps; ++s) {
      for (std::size_t i = 0; i <= kNeighbours; ++i) {
        const auto& batch = city.samples(i);
        if (s < batch.size()) trajs[i].append(batch[s].geo, batch[s].power);
      }
      const auto& update = engine.update(
          trajs[0],
          std::span<const core::ContextTrajectory* const>(senders.data(),
                                                          senders.size()),
          pool);
      merge(update, ids, cp);
    }
    if (r >= kWarmupRounds) checkpoints.push_back(std::move(cp));
  }
  return checkpoints;
}

/// Cold batch reference: the SAME CityFleet drive appended round-at-a-time,
/// estimated at each checkpoint by a cache-DISABLED FleetEngine (full SYN
/// search every time — no incremental state at all).
std::vector<Checkpoint> run_batch_reference(std::uint64_t seed) {
  const sim::CityFleetConfig ccfg = city_config(seed);
  sim::CityFleet city(ccfg);

  core::FleetConfig fcfg;
  fcfg.rups.channels = ccfg.channels;
  fcfg.rups.context_capacity_m = ccfg.context_capacity_m;
  fcfg.cache.enabled = false;
  core::FleetEngine fleet(fcfg);

  std::vector<std::uint64_t> ids;
  for (std::size_t i = 1; i <= kNeighbours; ++i) {
    ids.push_back(city.vehicle_id(i));
  }
  std::vector<core::ContextTrajectory> trajs;
  trajs.reserve(kNeighbours + 1);
  for (std::size_t i = 0; i <= kNeighbours; ++i) {
    trajs.emplace_back(ccfg.channels, ccfg.context_capacity_m);
  }
  std::vector<const core::ContextTrajectory*> views;
  for (std::size_t i = 1; i <= kNeighbours; ++i) views.push_back(&trajs[i]);

  std::vector<Checkpoint> checkpoints;
  for (std::size_t r = 0; r < kRounds; ++r) {
    city.advance_round();
    for (std::size_t i = 0; i <= kNeighbours; ++i) {
      for (const auto& s : city.samples(i)) {
        trajs[i].append(s.geo, s.power);
      }
    }
    if (r < kWarmupRounds) continue;
    const auto results = fleet.estimate_batch(
        trajs[0],
        std::span<const core::ContextTrajectory* const>(views.data(),
                                                        views.size()),
        std::span<const std::uint64_t>(ids.data(), ids.size()));
    Checkpoint cp;
    cp.has.assign(ids.size(), false);
    cp.distance_m.assign(ids.size(), 0.0);
    cp.confidence.assign(ids.size(), 0.0);
    cp.syn_count.assign(ids.size(), 0);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].estimate.has_value()) {
        cp.has[i] = true;
        cp.distance_m[i] = results[i].estimate->distance_m;
        cp.confidence[i] = results[i].estimate->confidence;
        cp.syn_count[i] = results[i].estimate->syn_count;
      }
    }
    checkpoints.push_back(std::move(cp));
  }
  return checkpoints;
}

void expect_identical(const std::vector<Checkpoint>& a,
                      const std::vector<Checkpoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].has, b[c].has) << "checkpoint " << c;
    // Bitwise equality: EXPECT_EQ on double, not NEAR.
    EXPECT_EQ(a[c].distance_m, b[c].distance_m) << "checkpoint " << c;
    EXPECT_EQ(a[c].confidence, b[c].confidence) << "checkpoint " << c;
    EXPECT_EQ(a[c].syn_count, b[c].syn_count) << "checkpoint " << c;
  }
}

constexpr std::uint64_t kSeeds[] = {0xC17F, 0x5EED5, 0xB33F};

TEST(StreamDeterminism, PerMetreIngestMatchesBatchAtCheckpoints) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const auto streaming = run_streaming(seed, nullptr);
    const auto batch = run_batch_reference(seed);
    ASSERT_FALSE(streaming.empty());
    bool any = false;
    for (const auto& cp : streaming) {
      for (bool h : cp.has) any = any || h;
    }
    EXPECT_TRUE(any) << "no estimate ever produced; vacuous comparison";
    expect_identical(streaming, batch);
  }
}

TEST(StreamDeterminism, PooledUpdatesMatchSerial) {
  util::ThreadPool pool(4);
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    const auto serial = run_streaming(seed, nullptr);
    const auto pooled = run_streaming(seed, &pool);
    expect_identical(serial, pooled);
  }
}

TEST(StreamDeterminism, ReplayIsBitIdentical) {
  const auto a = run_streaming(0xC17F, nullptr);
  const auto b = run_streaming(0xC17F, nullptr);
  expect_identical(a, b);
}

}  // namespace
}  // namespace rups
