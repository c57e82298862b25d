// Ablation: checking-window WIDTH — the number of strongest channels k
// used by the SYN search. The paper fixes k = 45 (Sec. VI-B); this sweep
// shows why: too few channels lose discrimination, while the cost grows
// linearly in k (O(m*w*k)) with diminishing accuracy returns.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_campaign.hpp"
#include "util/stats.hpp"

using namespace rups;

int main() {
  bench::header("Ablation", "top-k channel count of the checking window");

  const std::size_t queries = bench::scaled(120);
  auto csv = bench::csv_out("ablation_channels");
  csv.row(std::vector<std::string>{"top_channels", "mean_rde_m",
                                   "availability", "query_ms"});

  std::printf("  %-10s %-12s %-14s %s\n", "k", "mean RDE(m)", "availability",
              "query time(ms)");

  std::vector<double> rde_by_k;
  std::vector<double> ms_by_k;
  for (std::size_t k : {5UL, 10UL, 25UL, 45UL, 80UL, 115UL}) {
    auto scenario =
        bench::paper_scenario(61, road::EnvironmentType::kFourLaneUrban);
    scenario.rups.syn.top_channels = k;
    sim::Campaign campaign(scenario, bench::two_car_config(queries));
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = campaign.run();
    const auto t1 = std::chrono::steady_clock::now();
    // Rough per-query cost: campaign time minus simulation time is hard to
    // separate; measure one explicit query instead, after an untimed one
    // that brings the rear engine's own context pack up to date (the
    // campaign searched through its fleet engine).
    (void)campaign.convoy().query(1, 0);
    const auto q0 = std::chrono::steady_clock::now();
    (void)campaign.convoy().query(1, 0);
    const auto q1 = std::chrono::steady_clock::now();
    const double query_ms =
        std::chrono::duration<double, std::milli>(q1 - q0).count();
    (void)t0;
    (void)t1;

    util::RunningStats rde;
    for (double e : result.rups_errors()) rde.add(e);
    std::printf("  %-10zu %-12.2f %-14.2f %.2f\n", k, rde.mean(),
                result.availability(), query_ms);
    csv.row(std::vector<std::string>{
        std::to_string(k), std::to_string(rde.mean()),
        std::to_string(result.availability()), std::to_string(query_ms)});
    rde_by_k.push_back(rde.mean());
    ms_by_k.push_back(query_ms);
  }

  // Expected shape: accuracy saturates around the paper's k=45 while cost
  // keeps rising toward the full band.
  const double rde_45 = rde_by_k[3];
  const double rde_115 = rde_by_k[5];
  const bool pass = rde_45 <= rde_by_k[0] + 1.0 &&
                    std::abs(rde_115 - rde_45) < 2.0 &&
                    ms_by_k[5] > ms_by_k[3] * 1.5;
  std::printf("  shape check: accuracy saturates by k=45, cost keeps rising: %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
