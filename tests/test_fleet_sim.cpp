#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rups::sim {
namespace {

Scenario small_fleet_scenario(std::size_t vehicles) {
  Scenario s = Scenario::fleet(5, road::EnvironmentType::kFourLaneUrban,
                               vehicles, /*gap_m=*/30.0);
  s.route_length_m = 6'000.0;
  return s;
}

CampaignConfig fleet_config(std::size_t rounds) {
  CampaignConfig cfg;
  cfg.warmup_s = 350.0;
  cfg.interval_s = 5.0;
  cfg.rounds = rounds;
  return cfg;
}

TEST(ScenarioFleet, LaysVehiclesOutFrontToBack) {
  const Scenario s =
      Scenario::fleet(3, road::EnvironmentType::kFourLaneUrban, 4, 25.0);
  ASSERT_EQ(s.vehicles.size(), 4u);
  // Vehicle 0 leads; offsets decrease towards the rear car at 0.
  EXPECT_DOUBLE_EQ(s.vehicles[0].start_offset_m, 75.0);
  EXPECT_DOUBLE_EQ(s.vehicles[1].start_offset_m, 50.0);
  EXPECT_DOUBLE_EQ(s.vehicles[2].start_offset_m, 25.0);
  EXPECT_DOUBLE_EQ(s.vehicles[3].start_offset_m, 0.0);
  // Distinct per-vehicle seeds.
  EXPECT_NE(s.vehicles[0].seed, s.vehicles[1].seed);
  EXPECT_NE(s.vehicles[1].seed, s.vehicles[2].seed);
}

TEST(FleetSimulation, CampaignQueriesEveryNeighbourEachRound) {
  Campaign campaign(small_fleet_scenario(4), fleet_config(6));
  EXPECT_EQ(campaign.ego(), 3u);  // the rear car

  const CampaignResult result = campaign.run();
  ASSERT_EQ(result.rounds, 6u);
  ASSERT_EQ(result.outcomes.size(), 6u * 3u);  // every neighbour, every round
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const CampaignOutcome& o = result.outcomes[i];
    EXPECT_EQ(o.neighbour, i % 3);
    EXPECT_DOUBLE_EQ(o.time_s, result.ticks[i / 3]);
    // The ego is the rear car: every neighbour is ahead, truth < 0.
    EXPECT_LT(o.truth_m, 0.0);
  }

  // The convoy drives the same road, so the fleet should resolve most
  // neighbours once contexts are built.
  EXPECT_GT(result.availability(), 0.5);
  // Cache sanity: queries flowed through the shards, and after round one
  // the tracker carries the bulk of them.
  EXPECT_EQ(result.cache.queries, 6u * 3u);
  EXPECT_GT(result.cache.tracking_hits, 0u);
  // V2V sessions moved real bytes (full context + tails, per neighbour).
  EXPECT_GT(result.v2v_bytes, 0u);
  // Accuracy: fleet estimates against ground truth stay street-level.
  for (const double e : result.rups_errors()) EXPECT_LT(e, 50.0);
}

TEST(FleetSimulation, CacheDisabledStillAnswers) {
  CampaignConfig cfg = fleet_config(3);
  cfg.engine.fleet.cache.enabled = false;
  Campaign campaign(small_fleet_scenario(3), cfg);
  const CampaignResult result = campaign.run();
  ASSERT_EQ(result.rounds, 3u);
  EXPECT_EQ(result.cache.tracking_hits, 0u);
  EXPECT_GT(result.cache.full_searches, 0u);
  EXPECT_GT(result.availability(), 0.0);
}

TEST(FleetSimulation, HealthMonitorSeesEveryOutcome) {
  Campaign campaign(small_fleet_scenario(3), fleet_config(4));
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.health.samples, result.outcomes.size());
  EXPECT_EQ(result.health.exchanges, result.outcomes.size());
}

}  // namespace
}  // namespace rups::sim
