// Ablation: missing-channel interpolation (paper Sec. IV-C / Fig 6). With
// interpolation disabled, a moving scanner's sparse per-metre coverage
// leaves too few jointly-usable positions per channel and the SYN search
// starves; linear interpolation over distance restores comparability. The
// max bridging gap trades coverage against fabricated structure.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_campaign.hpp"
#include "util/stats.hpp"

using namespace rups;

int main() {
  bench::header("Ablation", "missing-channel interpolation and max gap");

  const std::size_t queries = bench::scaled(120);
  auto csv = bench::csv_out("ablation_interpolation");
  csv.row(std::vector<std::string>{"variant", "mean_rde_m", "availability",
                                   "usable_fraction"});

  struct Variant {
    const char* label;
    bool interpolate;
    std::size_t max_gap_m;
  };
  const Variant variants[] = {
      {"no interpolation", false, 0},
      {"interpolate, gap <= 10 m", true, 10},
      {"interpolate, gap <= 40 m", true, 40},
      {"interpolate, gap <= 120 m", true, 120},
  };

  std::printf("  %-26s %-12s %-14s %s\n", "variant", "mean RDE(m)",
              "availability", "usable slots");
  std::vector<double> avail;
  std::vector<double> rde;
  for (const auto& v : variants) {
    auto scenario =
        bench::paper_scenario(62, road::EnvironmentType::kFourLaneUrban);
    // Single radio per car: the harshest missing-channel regime.
    bench::set_radios(scenario, 1, 1);
    scenario.rups.binder.interpolate = v.interpolate;
    if (v.max_gap_m) scenario.rups.binder.max_interpolation_gap_m = v.max_gap_m;
    sim::Campaign campaign(scenario, bench::two_car_config(queries));
    const auto result = campaign.run();

    // Usable (measured or interpolated) slot fraction in the rear context.
    const auto& ctx = campaign.convoy().rig(1).engine().context();
    double usable = 0.0;
    for (std::size_t i = 0; i < ctx.size(); ++i) {
      usable += static_cast<double>(ctx.power(i).usable_count());
    }
    usable /= static_cast<double>(ctx.size()) *
              static_cast<double>(ctx.channels());

    util::RunningStats r;
    for (double e : result.rups_errors()) r.add(e);
    std::printf("  %-26s %-12.2f %-14.2f %.2f\n", v.label, r.mean(),
                result.availability(), usable);
    csv.row(std::vector<std::string>{
        v.label, std::to_string(r.mean()),
        std::to_string(result.availability()), std::to_string(usable)});
    avail.push_back(result.availability());
    rde.push_back(r.mean());
  }

  // Expected shape: interpolation dramatically lifts availability; a
  // moderate gap (the paper-style regime, 40 m) is at least as accurate as
  // unlimited bridging.
  const bool pass = avail[0] < avail[2] - 0.1 && avail[2] > 0.5 &&
                    rde[2] <= rde[3] + 1.0;
  std::printf("  shape check: interpolation lifts availability; moderate gap suffices: %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
