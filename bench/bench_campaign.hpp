#pragma once

// Shared scenario setup for the evaluation benches (Figs. 9-12): the
// paper's common configuration — two cars 40 m apart, 1000 m journey
// context, checking window of top-45 channels x 85 m, coherency threshold
// 1.2 (Sec. VI-B).

#include "bench_common.hpp"
#include "sim/campaign.hpp"

namespace rups::bench {

inline sim::Scenario paper_scenario(std::uint64_t seed,
                                    road::EnvironmentType env,
                                    bool distinct_lanes = false) {
  sim::Scenario s = sim::Scenario::two_car(seed, env, /*gap_m=*/40.0);
  s.route_length_m = 14'000.0;
  s.rups.syn.window_m = 85;
  s.rups.syn.top_channels = 45;
  s.rups.syn.coherency_threshold = 1.2;
  s.rups.aggregation = core::Aggregation::kSelectiveMean;
  if (distinct_lanes) {
    s.vehicles[0].lane = 2;
    s.vehicles[1].lane = 6;
  }
  return s;
}

inline void set_radios(sim::Scenario& s, int front_car_radios,
                       int rear_car_radios,
                       sensors::RadioPlacement rear_placement =
                           sensors::RadioPlacement::kFrontPanel) {
  s.vehicles[0].radios = front_car_radios;
  s.vehicles[1].radios = rear_car_radios;
  s.vehicles[1].placement = rear_placement;
}

/// The paper's two-car campaign: `queries` rounds over the round transport
/// on a clean channel, with the tracking cache off (every query is a full
/// SYN search, as in the paper).
inline sim::CampaignConfig two_car_config(std::size_t queries) {
  sim::CampaignConfig cfg;
  cfg.rounds = queries;
  cfg.engine.fleet.cache.enabled = false;
  return cfg;
}

inline sim::CampaignResult run(const sim::Scenario& scenario,
                               std::size_t queries) {
  sim::Campaign campaign(scenario, two_car_config(queries));
  return campaign.run();
}

}  // namespace rups::bench
