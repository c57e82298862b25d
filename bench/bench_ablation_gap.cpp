// Ablation: convoy gap. The paper's ground-truth rangefinder capped the
// evaluated gaps at 50 m; this sweep asks how RUPS behaves beyond that —
// relevant for the intro's "vehicle approaching rapidly from behind" use
// case. Two effects compete as the gap grows: (a) the time between the two
// cars' passes over the same road grows, so the ephemeral part of the fine
// multipath decorrelates, and (b) the shared context shrinks relative to
// the 1000 m retention window.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_campaign.hpp"
#include "util/stats.hpp"

using namespace rups;

int main() {
  bench::header("Ablation", "RUPS accuracy vs convoy gap");

  const std::size_t queries = bench::scaled(100);
  auto csv = bench::csv_out("ablation_gap");
  csv.row(std::vector<std::string>{"gap_m", "mean_rde_m", "median_rde_m",
                                   "availability"});

  std::printf("  %-9s %-12s %-13s %s\n", "gap(m)", "mean RDE(m)",
              "median RDE(m)", "availability");
  std::vector<double> medians;
  std::vector<double> avail;
  for (double gap : {15.0, 40.0, 100.0, 250.0, 500.0}) {
    sim::Scenario scenario = sim::Scenario::two_car(
        91, road::EnvironmentType::kFourLaneUrban, gap);
    scenario.route_length_m = 16'000.0;
    scenario.rups.syn.syn_points = 5;
    scenario.rups.aggregation = core::Aggregation::kSelectiveMean;
    // Disable car-following coupling distortions at huge gaps by widening
    // the follow band: the rear car just drives its own style.
    sim::CampaignConfig cfg = bench::two_car_config(queries);
    cfg.warmup_s = 400.0;
    sim::Campaign campaign(scenario, cfg);
    const auto result = campaign.run();
    const auto errors = result.rups_errors();
    util::RunningStats r;
    for (double e : errors) r.add(e);
    const double med = util::median(errors);
    std::printf("  %-9.0f %-12.2f %-13.2f %.2f\n", gap, r.mean(), med,
                result.availability());
    csv.row(std::vector<std::string>{
        std::to_string(gap), std::to_string(r.mean()), std::to_string(med),
        std::to_string(result.availability())});
    medians.push_back(med);
    avail.push_back(result.availability());
  }

  // Expected shape: metre-level accuracy at rangefinder-scale gaps, graceful
  // degradation (not collapse) out to several hundred metres while the
  // contexts still overlap.
  const bool pass = medians[0] < 3.0 && medians[1] < 3.0 &&
                    avail[0] > 0.9 && avail[3] > 0.5 &&
                    medians[3] < 25.0;
  std::printf("  shape check: metre-level near, graceful degradation far: %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
