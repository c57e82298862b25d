// Ablation: checking-window LENGTH and the adaptive short-context window
// (paper Sec. V-C). Longer windows discriminate better but demand more
// context (a vehicle that just turned onto a road cannot answer until it
// has window_m metres); the adaptive window trades a relaxed threshold for
// fast first answers after a turn.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_campaign.hpp"
#include "util/stats.hpp"

using namespace rups;

namespace {

/// Fraction of queries answered when the rear car has only `context_m`
/// metres of context (simulating a fresh turn onto the road).
double short_context_availability(std::size_t context_m, bool adaptive,
                                  std::size_t queries) {
  auto scenario =
      bench::paper_scenario(63, road::EnvironmentType::kFourLaneUrban);
  scenario.rups.context_capacity_m = context_m;  // bounded context = freshly turned
  scenario.rups.syn.adaptive_window = adaptive;
  return bench::run(scenario, queries).availability();
}

}  // namespace

int main() {
  bench::header("Ablation", "window length + adaptive short-context window");

  const std::size_t queries = bench::scaled(100);
  auto csv = bench::csv_out("ablation_window");
  csv.row(std::vector<std::string>{"window_m", "mean_rde_m", "availability"});

  std::printf("  window length sweep (full 1000 m context):\n");
  std::printf("  %-10s %-12s %s\n", "w (m)", "mean RDE(m)", "availability");
  std::vector<double> rde_by_w;
  for (std::size_t w : {15UL, 30UL, 85UL, 150UL}) {
    auto scenario =
        bench::paper_scenario(64, road::EnvironmentType::kEightLaneUrban);
    scenario.rups.syn.window_m = w;
    const auto result = bench::run(scenario, queries);
    util::RunningStats r;
    for (double e : result.rups_errors()) r.add(e);
    std::printf("  %-10zu %-12.2f %.2f\n", w, r.mean(),
                result.availability());
    csv.row(std::vector<std::string>{std::to_string(w),
                                     std::to_string(r.mean()),
                                     std::to_string(result.availability())});
    rde_by_w.push_back(r.mean());
  }

  std::printf("\n  short context (vehicle just turned; 30 m of context):\n");
  const double avail_fixed = short_context_availability(30, false, queries);
  const double avail_adaptive = short_context_availability(30, true, queries);
  std::printf("    fixed 85 m window    : availability %.2f\n", avail_fixed);
  std::printf("    adaptive window      : availability %.2f\n",
              avail_adaptive);
  csv.row(std::vector<std::string>{"short_fixed", "-",
                                   std::to_string(avail_fixed)});
  csv.row(std::vector<std::string>{"short_adaptive", "-",
                                   std::to_string(avail_adaptive)});
  bench::note("paper Sec V-C: a flexible window lets a vehicle answer fast"
              " right after entering a road");

  // Expected shape: tiny windows are worse than the paper's 85 m; the
  // adaptive window rescues availability for short contexts where the
  // fixed window cannot answer at all.
  // Both cars have only 30 m of context, so even the adaptive window can
  // answer only a minority of queries — but the fixed window answers none.
  const bool pass = rde_by_w[0] >= rde_by_w[2] - 0.5 && avail_fixed < 0.05 &&
                    avail_adaptive > 0.15;
  std::printf("  shape check: 85 m window solid, adaptive rescues short contexts: %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
