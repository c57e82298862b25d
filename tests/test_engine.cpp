// Integration tests of the RupsEngine facade on synthetic sensor streams
// (vehicle-frame; reorientation bypassed). End-to-end behaviour with the
// full sensor models is covered by test_convoy_sim.

#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

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
/// east, dwelling on one channel every 15 ms (every channel once per
/// sweep). advance() resumes where the previous call stopped.
class RoadDrive {
 public:
  RoadDrive(double start_road_m, double speed_mps, std::uint64_t noise_seed)
      : start_road_m_(start_road_m), speed_mps_(speed_mps), rng_(noise_seed) {}

  /// Feed sensor samples up to drive time `until_s`.
  void advance(RupsEngine& engine, double until_s) {
    for (; t_ <= until_s; t_ += kDt) {
      if (t_ >= next_obd_) {
        engine.on_speed({t_, speed_mps_});
        next_obd_ += 2.0;
      }
      sensors::ImuSample imu;
      imu.time_s = t_;
      imu.accel_mps2 = {0.0, 0.0, 9.80665};
      imu.mag_ut = {-30.0, 0.0, -35.0};  // heading 0 (east)
      engine.on_imu(imu);
      while (t_ >= next_dwell_) {
        if (dwell_channel_ != muted_channel) {
          engine.on_rssi(dwell(next_dwell_, dwell_channel_));
        }
        dwell_channel_ = (dwell_channel_ + 1) % kChannels;
        next_dwell_ += 0.015;
      }
    }
  }

  /// The dwell a scanner would report on `channel` at drive time `time_s`.
  sensors::RssiMeasurement dwell(double time_s, std::size_t channel) {
    const double road_pos = start_road_m_ + speed_mps_ * time_s;
    sensors::RssiMeasurement m;
    m.time_s = time_s;
    m.channel_index = channel;
    m.rssi_dbm = road_rssi(static_cast<std::int64_t>(std::floor(road_pos)),
                           channel) +
                 rng_.gaussian(0.0, 0.5);
    return m;
  }

  [[nodiscard]] double time_s() const noexcept { return t_; }

  /// A channel the scanner skips (kChannels: none).
  std::size_t muted_channel = kChannels;

 private:
  static constexpr double kDt = 0.005;
  double start_road_m_;
  double speed_mps_;
  util::Rng rng_;
  double t_ = 0.0;
  double next_obd_ = 0.0;
  double next_dwell_ = 0.0;
  std::size_t dwell_channel_ = 0;
};

void drive(RupsEngine& engine, double start_road_m, double distance_m,
           double speed_mps, std::uint64_t noise_seed) {
  RoadDrive(start_road_m, speed_mps, noise_seed)
      .advance(engine, distance_m / speed_mps);
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
  // query with no ingest in between packs only the neighbour.
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
  EXPECT_EQ(packed.value() - before, neighbour);
}

TEST(Engine, DeepLateWritesKeepOwnPackBitIdenticalToColdPack) {
  // The binder writes a late dwell into any retained metre, and with a
  // 120 m interpolation gap a scanner dropout is back-filled that deep
  // too. The engine's incrementally synced pack must see every such write:
  // at every metre its SYN points stay bit-identical to a seeker that packs
  // both sides cold.
  RupsConfig cfg = test_config();
  cfg.binder.max_interpolation_gap_m = 120;
  cfg.syn.syn_points = 5;
  cfg.syn.syn_segment_spacing_m = 20;
  RupsEngine rear(cfg);
  RupsEngine front(cfg);
  drive(front, 50.0, 450.0, 10.0, 16);
  RoadDrive road(0.0, 10.0, 15);
  road.advance(rear, 20.0);
  const SynSeeker cold(cfg.syn);
  std::size_t deep_writes = 0;
  for (std::size_t step = 0; step < 200; ++step) {
    // An 80 m dropout of channel 7, bridged once the channel returns.
    road.muted_channel = step >= 20 && step < 100 ? 7 : kChannels;
    // A late dwell 50-100 m behind the head (0.1 s per metre).
    const std::size_t channel = step % kChannels;
    if (channel != road.muted_channel) {
      const double late_s = road.time_s() - 5.0 - 0.1 * (step % 51);
      sensors::RssiMeasurement late = road.dwell(late_s, channel);
      late.rssi_dbm += 1.5;
      // A write turns an interpolated slot into a measured one.
      const double measured = rear.context().measured_fraction();
      rear.on_rssi(late);
      deep_writes += rear.context().measured_fraction() != measured;
    }
    road.advance(rear, road.time_s() + 0.1);

    const auto warm = rear.find_syn_points(front.context());
    const auto fresh = cold.find(rear.context(), front.context());
    ASSERT_EQ(warm.size(), fresh.size()) << "step " << step;
    ASSERT_FALSE(warm.empty()) << "step " << step;
    for (std::size_t k = 0; k < warm.size(); ++k) {
      EXPECT_EQ(warm[k].index_a, fresh[k].index_a) << "step " << step;
      EXPECT_EQ(warm[k].index_b, fresh[k].index_b) << "step " << step;
      EXPECT_EQ(warm[k].window_m, fresh[k].window_m) << "step " << step;
      ASSERT_EQ(warm[k].correlation, fresh[k].correlation)
          << "step " << step << " syn " << k;
    }
  }
  // Most late dwells land on an interpolated slot and overwrite it.
  EXPECT_GT(deep_writes, 100u);
}

}  // namespace
}  // namespace rups::core
