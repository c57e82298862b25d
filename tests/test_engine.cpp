// Integration tests of the RupsEngine facade on synthetic sensor streams
// (vehicle-frame; reorientation bypassed). End-to-end behaviour with the
// full sensor models is covered by test_convoy_sim.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/packed.hpp"
#include "obs/metrics.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

namespace rups::core {
namespace {

constexpr std::size_t kChannels = 24;

float road_rssi(std::int64_t metre, std::size_t ch) {
  const util::HashNoise chan_noise(0xF00D);
  const util::LatticeField1D spatial(util::hash_combine(9, ch), 8.0, 2);
  return static_cast<float>(-95.0 +
                            40.0 * chan_noise.uniform(static_cast<std::int64_t>(ch)) +
                            6.0 * spatial.value(static_cast<double>(metre)));
}

RupsConfig test_config() {
  RupsConfig cfg;
  cfg.channels = kChannels;
  cfg.assume_aligned_sensors = true;
  cfg.syn.window_m = 40;
  cfg.syn.top_channels = 16;
  return cfg;
}

/// Drives an engine over the synthetic road: constant speed, straight
/// east, scanning all channels every `sweep_s`.
void drive(RupsEngine& engine, double start_road_m, double distance_m,
           double speed_mps, std::uint64_t noise_seed) {
  util::Rng rng(noise_seed);
  const double dt = 0.005;
  const double duration = distance_m / speed_mps;
  double next_obd = 0.0;
  double next_dwell = 0.0;
  std::size_t dwell_channel = 0;
  for (double t = 0.0; t <= duration; t += dt) {
    if (t >= next_obd) {
      engine.on_speed({t, speed_mps});
      next_obd += 2.0;
    }
    sensors::ImuSample imu;
    imu.time_s = t;
    imu.accel_mps2 = {0.0, 0.0, 9.80665};
    imu.mag_ut = {-30.0, 0.0, -35.0};  // heading 0 (east)
    engine.on_imu(imu);
    while (t >= next_dwell) {
      const double road_pos = start_road_m + speed_mps * next_dwell;
      sensors::RssiMeasurement m;
      m.time_s = next_dwell;
      m.channel_index = dwell_channel;
      m.rssi_dbm =
          road_rssi(static_cast<std::int64_t>(std::floor(road_pos)),
                    dwell_channel) +
          rng.gaussian(0.0, 0.5);
      engine.on_rssi(m);
      dwell_channel = (dwell_channel + 1) % kChannels;
      next_dwell += 0.015;
    }
  }
}

TEST(Engine, BuildsContextWhileDriving) {
  RupsEngine engine(test_config());
  drive(engine, 0.0, 300.0, 10.0, 1);
  EXPECT_TRUE(engine.calibrated());
  EXPECT_NEAR(engine.odometer_m(), 300.0, 2.0);
  EXPECT_NEAR(static_cast<double>(engine.context().size()), 300.0, 3.0);
  EXPECT_GT(engine.context().measured_fraction(), 0.1);
  EXPECT_NEAR(engine.heading_rad(), 0.0, 0.05);
}

TEST(Engine, ContextIsBoundedByCapacity) {
  RupsConfig cfg = test_config();
  cfg.context_capacity_m = 150;
  RupsEngine engine(cfg);
  drive(engine, 0.0, 400.0, 12.0, 2);
  EXPECT_EQ(engine.context().size(), 150u);
  EXPECT_GT(engine.context().first_metre(), 200u);
}

TEST(Engine, TwoEnginesResolveRelativeDistance) {
  RupsEngine rear(test_config());
  RupsEngine front(test_config());
  drive(rear, 0.0, 250.0, 10.0, 3);
  drive(front, 70.0, 250.0, 10.0, 4);  // 70 m ahead on the same road

  const auto est = rear.estimate_distance(front.context());
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->distance_m, -70.0, 3.0);
  EXPECT_GE(est->confidence, rear.config().syn.coherency_threshold);

  // Symmetric query from the front car.
  const auto reverse = front.estimate_distance(rear.context());
  ASSERT_TRUE(reverse.has_value());
  EXPECT_NEAR(reverse->distance_m, 70.0, 3.0);
}

TEST(Engine, DifferentSpeedsStillResolve) {
  RupsEngine rear(test_config());
  RupsEngine front(test_config());
  drive(rear, 0.0, 250.0, 8.0, 5);
  drive(front, 40.0, 250.0, 14.0, 6);
  const auto est = rear.estimate_distance(front.context());
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->distance_m, -40.0, 5.0);
}

TEST(Engine, NoSpeedMeansNoTrajectory) {
  RupsEngine engine(test_config());
  sensors::ImuSample imu;
  imu.accel_mps2 = {0.0, 0.0, 9.80665};
  imu.mag_ut = {-30.0, 0.0, -35.0};
  for (int i = 0; i < 10000; ++i) {
    imu.time_s = i * 0.005;
    engine.on_imu(imu);
  }
  EXPECT_DOUBLE_EQ(engine.odometer_m(), 0.0);
  EXPECT_TRUE(engine.context().empty());
}

TEST(Engine, UnrelatedContextsRejected) {
  RupsEngine a(test_config());
  RupsEngine b(test_config());
  drive(a, 0.0, 200.0, 10.0, 7);
  // b drives a "different road": offset so far that fields are unrelated
  // (the hashed field decorrelates within ~10 m).
  drive(b, 100'000.0, 200.0, 10.0, 8);
  EXPECT_FALSE(a.estimate_distance(b.context()).has_value());
  EXPECT_TRUE(a.find_syn_points(b.context()).empty());
}

TEST(Engine, MultiSynAggregationUsesConfiguredScheme) {
  RupsConfig cfg = test_config();
  cfg.syn.syn_points = 5;
  cfg.syn.syn_segment_spacing_m = 20;
  cfg.aggregation = Aggregation::kSelectiveMean;
  RupsEngine rear(cfg);
  RupsEngine front(cfg);
  drive(rear, 0.0, 300.0, 10.0, 9);
  drive(front, 50.0, 300.0, 10.0, 10);
  const auto est = rear.estimate_distance(front.context());
  ASSERT_TRUE(est.has_value());
  EXPECT_GE(est->syn_count, 3u);
  EXPECT_NEAR(est->distance_m, -50.0, 3.0);
}

TEST(Engine, ParallelQueryMatchesSequential) {
  RupsEngine rear(test_config());
  RupsEngine front(test_config());
  drive(rear, 0.0, 250.0, 10.0, 11);
  drive(front, 30.0, 250.0, 10.0, 12);
  util::ThreadPool pool(3);
  const auto seq = rear.estimate_distance(front.context());
  const auto par = rear.estimate_distance(front.context(), &pool);
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(par.has_value());
  EXPECT_DOUBLE_EQ(seq->distance_m, par->distance_m);
}

TEST(Engine, EstimatePacksEachSideAtMostOncePerQuery) {
#ifdef RUPS_OBS_DISABLED
  GTEST_SKIP() << "syn.columns_packed compiles to a no-op";
#endif
  // A 5-SYN query runs ten slide passes; each side must be packed once for
  // all of them. The engine's own pack is synced incrementally, so a repeat
  // query against an unchanged neighbour re-packs only the engine's
  // volatile suffix (no growth in between) plus one full neighbour pack.
  RupsConfig cfg = test_config();
  cfg.syn.syn_points = 5;
  cfg.syn.syn_segment_spacing_m = 20;
  RupsEngine rear(cfg);
  RupsEngine front(cfg);
  drive(rear, 0.0, 300.0, 10.0, 13);
  drive(front, 50.0, 300.0, 10.0, 14);
  const obs::Counter& packed =
      obs::Registry::global().counter("syn.columns_packed");
  const std::size_t own = rear.context().size();
  const std::size_t neighbour = front.context().size();

  std::uint64_t before = packed.value();
  ASSERT_TRUE(rear.estimate_distance(front.context()).has_value());
  EXPECT_EQ(packed.value() - before, own + neighbour);

  before = packed.value();
  ASSERT_TRUE(rear.estimate_distance(front.context()).has_value());
  const std::uint64_t repeat = packed.value() - before;
  EXPECT_GE(repeat, neighbour);
  EXPECT_LE(repeat, neighbour + PackedContext::kDefaultVolatileSuffixM);
}

}  // namespace
}  // namespace rups::core
