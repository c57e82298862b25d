// Integration: the paper's 97 km mixed evaluation route, scaled down — the
// convoy crosses environment changes and 90-degree turns, exercising the
// heading pipeline (gyro + magnetometer through reorientation) and SYN
// matching across segment boundaries.

#include <gtest/gtest.h>

#include "sim/campaign.hpp"
#include "util/angle.hpp"
#include "util/stats.hpp"

namespace rups::sim {
namespace {

Scenario mixed_scenario(std::uint64_t seed) {
  Scenario s = Scenario::two_car(seed, road::EnvironmentType::kFourLaneUrban);
  s.mixed_route = true;
  s.route_length_m = 12'000.0;
  return s;
}

TEST(MixedRoute, RouteContainsTurnsAndEnvironmentChanges) {
  ConvoySimulation sim(mixed_scenario(88));
  const auto& segs = sim.route().segments();
  ASSERT_GT(segs.size(), 5u);
  bool turn = false, env_change = false;
  for (std::size_t i = 1; i < segs.size(); ++i) {
    if (std::abs(util::angle_diff(segs[i].heading_rad,
                                  segs[i - 1].heading_rad)) > 0.5) {
      turn = true;
    }
    if (segs[i].env != segs[i - 1].env) env_change = true;
  }
  EXPECT_TRUE(turn);
  EXPECT_TRUE(env_change);
}

TEST(MixedRoute, HeadingEstimateTracksTruthThroughTurns) {
  ConvoySimulation sim(mixed_scenario(88));
  sim.run_until(300.0);
  util::RunningStats err;
  for (int i = 0; i < 30; ++i) {
    sim.run_until(300.0 + 10.0 * i);
    for (std::size_t v = 0; v < 2; ++v) {
      if (!sim.rig(v).engine().calibrated()) continue;
      err.add(std::abs(util::angle_diff(sim.rig(v).engine().heading_rad(),
                                        sim.rig(v).state().heading_rad)));
    }
  }
  ASSERT_GT(err.count(), 20u);
  EXPECT_LT(err.mean(), 0.15);  // < ~9 degrees on average
}

TEST(MixedRoute, RupsAccuracySurvivesTurnsAndEnvChanges) {
  CampaignConfig cfg;
  cfg.rounds = 40;
  cfg.interval_s = 5.0;
  cfg.engine.fleet.cache.enabled = false;
  Campaign campaign(mixed_scenario(89), cfg);
  const auto result = campaign.run();
  util::RunningStats rde;
  for (double e : result.rups_errors()) rde.add(e);
  EXPECT_GT(result.availability(), 0.8);
  ASSERT_GT(rde.count(), 25u);
  EXPECT_LT(rde.mean(), 8.0);
  EXPECT_LT(util::median(result.rups_errors()), 3.0);
}

TEST(MixedRoute, ContextHeadingsRecordTheTurns) {
  ConvoySimulation sim(mixed_scenario(88));
  sim.run_until(500.0);
  const auto& ctx = sim.rig(0).engine().context();
  ASSERT_GT(ctx.size(), 300u);
  // The recorded geographical trajectory must show heading diversity if the
  // car went around corners.
  util::RunningStats heading;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    heading.add(ctx.geo(i).heading_rad);
  }
  EXPECT_GT(heading.max() - heading.min(), 0.5);
}

}  // namespace
}  // namespace rups::sim
