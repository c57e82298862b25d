// Convoy tracking: the intro's motivating safety application. The rear car
// continuously tracks the front car at 2 Hz using the Sec. V-B strategy —
// one full context sync, then beacons carrying only the front car's newest
// metres, each estimate a narrow SynCache re-verify around the locked
// alignment — and raises an alert when the gap closes fast (front car
// braking hard).
//
//   $ ./convoy_tracking [seed]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/campaign.hpp"

using namespace rups;

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  sim::Scenario scenario = sim::Scenario::two_car(
      seed, road::EnvironmentType::kEightLaneUrban, /*gap_m=*/45.0);
  scenario.route_length_m = 10'000.0;
  scenario.traffic = vehicle::TrafficDensity::kModerate;

  sim::CampaignConfig config;
  config.warmup_s = 400.0;
  config.interval_s = 0.5;
  config.rounds = 240;  // 120 s at 2 Hz
  config.transport = sim::Transport::kBeacon;
  sim::Campaign campaign(scenario, config);
  std::printf("warming up (sensor calibration + context build)...\n");

  double prev_gap = 0.0;
  double prev_t = 0.0;
  bool have_prev = false;
  int alerts = 0;
  std::size_t estimates = 0;
  std::size_t initial_bytes = 0;
  std::size_t bytes_before = 0;

  for (std::size_t tick = 0; tick < config.rounds && campaign.advance();
       ++tick) {
    const auto step = campaign.exchange_and_estimate();
    const std::size_t bytes = campaign.v2v_bytes() - bytes_before;
    bytes_before += bytes;
    if (tick == 0) {
      initial_bytes = bytes;
      std::printf("initial full sync: %zu B\n\n", initial_bytes);
      std::printf("%8s %10s %10s %8s %9s %s\n", "t(s)", "est(m)", "truth(m)",
                  "err(m)", "bytes", "event");
    }

    // No outcome when neither car moved (the last estimate still holds).
    if (step.empty() || !step[0].result.estimate.has_value()) continue;
    const sim::CampaignOutcome& o = step[0];
    ++estimates;
    const double t = campaign.now();
    const double est = o.result.estimate->distance_m;
    const double gap = -est;  // distance to the car ahead

    const char* event = "";
    if (have_prev) {
      const double closing_mps = (prev_gap - gap) / (t - prev_t);
      if (closing_mps > 3.0 && gap < 40.0) {
        event = "!! CLOSING FAST — front car braking";
        ++alerts;
      }
    }
    prev_gap = gap;
    prev_t = t;
    have_prev = true;

    // Print every 5 s (estimates run at 2 Hz) and on every alert.
    if (std::fmod(t, 5.0) < 0.25 || event[0] != '\0') {
      std::printf("%8.1f %10.2f %10.2f %8.2f %9zu %s\n", t, est, o.truth_m,
                  std::abs(est - o.truth_m), bytes, event);
    }
  }

  const stream::BeaconStats beacons = campaign.beacon_stats();
  std::printf(
      "\ntracked 120 s at 2 Hz: %zu estimates, %llu full syncs (initial"
      " included), %zu B of beacons after the initial sync (vs %zu B for"
      " it), %d hard-brake alerts\n",
      estimates, static_cast<unsigned long long>(beacons.resyncs),
      campaign.v2v_bytes() - initial_bytes, initial_bytes, alerts);
  return estimates > 0 ? 0 : 1;
}
