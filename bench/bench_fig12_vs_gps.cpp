// Fig 12: RUPS vs GPS relative distance error CDFs across four urban
// environments — 2-lane suburb, 4-lane urban, 8-lane urban, under elevated
// roads. Paper means (m):
//   RUPS: 3.4 / 2.3 / 4.2 / 6.9      GPS: 4.2 / 9.9 / 9.8 / 21.1
// giving the headline "RUPS outperforms GPS by 2.7x on average".

#include <cstdio>
#include <string>
#include <vector>

#include "bench_campaign.hpp"
#include "util/stats.hpp"

using namespace rups;

int main() {
  bench::header("Fig 12", "RUPS vs GPS across urban environments");

  struct EnvCase {
    const char* label;
    road::EnvironmentType env;
    double paper_rups_m;
    double paper_gps_m;
  };
  const EnvCase envs[] = {
      {"2-lane suburb", road::EnvironmentType::kTwoLaneSuburb, 3.4, 4.2},
      {"4-lane urban", road::EnvironmentType::kFourLaneUrban, 2.3, 9.9},
      {"8-lane urban", road::EnvironmentType::kEightLaneUrban, 4.2, 9.8},
      {"under elevated", road::EnvironmentType::kUnderElevated, 6.9, 21.1},
  };

  const std::size_t queries = bench::scaled(250);
  auto csv = bench::csv_out("fig12_vs_gps");
  csv.row(std::vector<std::string>{"environment", "scheme", "rde_m"});

  double ratio_sum = 0.0;
  int ratio_n = 0;
  bool rups_beats_gps_everywhere_urban = true;
  double rups_under_elevated = 0.0, gps_under_elevated = 0.0;
  double rups_sum = 0.0;

  std::uint64_t seed = 500;
  for (const auto& e : envs) {
    auto scenario = bench::paper_scenario(seed++, e.env);
    scenario.rups.syn.syn_points = 5;
    const auto result = bench::run(scenario, queries);

    const auto rups_err = result.rups_errors();
    const auto gps_err = result.gps_errors();
    for (double v : rups_err) {
      csv.row(std::vector<std::string>{e.label, "RUPS", std::to_string(v)});
    }
    for (double v : gps_err) {
      csv.row(std::vector<std::string>{e.label, "GPS", std::to_string(v)});
    }
    const double rups_mean = util::mean(rups_err);
    const double gps_mean = util::mean(gps_err);
    util::EmpiricalCdf rc{std::vector<double>(rups_err)};
    util::EmpiricalCdf gc{std::vector<double>(gps_err)};
    std::printf(
        "  %-16s RUPS mean %5.2f m (p90 %5.2f)   GPS mean %5.2f m (p90 %5.2f)"
        "   avail %.2f\n",
        e.label, rups_mean, rups_err.empty() ? 0.0 : rc.quantile(0.9),
        gps_mean, gps_err.empty() ? 0.0 : gc.quantile(0.9),
        result.availability());
    bench::paper_vs_measured((std::string("  RUPS, ") + e.label).c_str(),
                             e.paper_rups_m, rups_mean, "m");
    bench::paper_vs_measured((std::string("  GPS,  ") + e.label).c_str(),
                             e.paper_gps_m, gps_mean, "m");

    if (gps_mean > 0.0 && rups_mean > 0.0) {
      ratio_sum += gps_mean / rups_mean;
      ++ratio_n;
    }
    rups_sum += rups_mean;
    if (e.env != road::EnvironmentType::kTwoLaneSuburb &&
        rups_mean >= gps_mean) {
      rups_beats_gps_everywhere_urban = false;
    }
    if (e.env == road::EnvironmentType::kUnderElevated) {
      rups_under_elevated = rups_mean;
      gps_under_elevated = gps_mean;
    }
  }

  const double mean_ratio = ratio_n ? ratio_sum / ratio_n : 0.0;
  bench::paper_vs_measured("GPS/RUPS error ratio (average)", 2.7, mean_ratio,
                           "x");
  bench::paper_vs_measured("RUPS mean over all environments", 4.2,
                           rups_sum / 4.0, "m");
  const bool pass = rups_beats_gps_everywhere_urban && mean_ratio > 1.5 &&
                    gps_under_elevated > 2.0 * rups_under_elevated;
  std::printf("  shape check: RUPS robust, GPS collapses under elevated, ratio >~2x: %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
