// Ops-plane gates for the sampling profiler and the allocation ratchet,
// on the same warm N=16 fleet campaign bench_telemetry uses.
//
// Default mode — profiler_overhead_gate: runs the campaign with the
// sampling span-stack profiler off and on (interleaved best-of-2, fresh
// identically-seeded simulations per run) and fails when estimates differ
// in any bit, when the profiler-on wall clock exceeds the off one by more
// than the ceiling, or when the profiler sampled nothing (a profiler that
// observes no stacks is broken, not cheap). Prints the folded-stack
// attribution table so the gate log doubles as a profile report.
//
// --census mode — steady_alloc_gate: drives the fleet campaign round by
// round with global allocation accounting on, measures operator-new calls
// per warm round on the driving thread (serial batches: every estimate
// task allocates on this thread), and prints the span-attributed
// allocation census. With --baseline FILE the measured warm-round
// allocation count is ratcheted against the committed baseline
// (BENCH_alloc_baseline.json): the warm path is deterministic, so growth
// beyond the tolerance means a new allocation actually landed on the hot
// path. Skips (exit 77) when allocation accounting is unavailable (ASAN
// builds own the allocator).
//
// --report-only: the census run without the ratchet — emits
// bench_out/profile_metrics.json (registry snapshot with the census
// families spliced into gauges), replayed by bench_regression.sh pass 7.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "sim/campaign.hpp"
#include "util/json.hpp"

namespace {

using namespace rups;

constexpr std::size_t kVehicles = 17;  // ego + 16 neighbours
constexpr std::size_t kRounds = 16;
constexpr std::size_t kWarmRounds = 4;  // cache/V2V warm-up, unmeasured
constexpr std::uint64_t kSeed = 7;
constexpr double kOverheadCeiling = 1.25;   // noisy 1-CPU container
constexpr double kAllocRatchetTol = 0.10;   // warm path is deterministic

sim::Scenario make_scenario() {
  sim::Scenario scenario = sim::Scenario::fleet(
      kSeed, road::EnvironmentType::kFourLaneUrban, kVehicles, /*gap_m=*/25.0);
  scenario.route_length_m = 9'000.0;
  return scenario;
}

sim::CampaignConfig make_config() {
  sim::CampaignConfig cfg;
  cfg.rounds = kRounds;  // fixed: deterministic census counters
  cfg.interval_s = 3.0;
  cfg.link_seed = 0xF1EE'7CA5ULL;  // the fleet benches' pinned link timing
  return cfg;
}

// ---------------------------------------------------------------------------
// profiler_overhead_gate (default mode)

struct RunResult {
  double seconds = 0.0;
  sim::CampaignResult campaign;
};

RunResult run_once(obs::SpanProfiler* profiler) {
  sim::Campaign campaign(make_scenario(), make_config());

  RunResult out;
  const auto started = std::chrono::steady_clock::now();
  if (profiler != nullptr) profiler->start();
  out.campaign = campaign.run();
  if (profiler != nullptr) profiler->stop();
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              started)
                    .count();
  return out;
}

/// Estimates (and the SYN points they came from) must match bit for bit:
/// profiling may cost time, never accuracy.
bool same_estimates(const sim::CampaignResult& a,
                    const sim::CampaignResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i].result;
    const auto& y = b.outcomes[i].result;
    if (a.outcomes[i].neighbour != b.outcomes[i].neighbour) return false;
    if (x.estimate.has_value() != y.estimate.has_value()) return false;
    if (x.estimate.has_value() &&
        (x.estimate->distance_m != y.estimate->distance_m ||
         x.estimate->confidence != y.estimate->confidence ||
         x.estimate->syn_count != y.estimate->syn_count)) {
      return false;
    }
    if (x.syn_points.size() != y.syn_points.size()) return false;
  }
  return true;
}

int run_overhead_gate() {
  bench::header("profile", "sampling profiler overhead (warm fleet, N=16)");
  std::printf("  %zu vehicles, %zu rounds, clean channel, serial batches\n",
              kVehicles, kRounds);

  // Interleaved best-of-2 per mode: alternating absorbs slow drift in
  // container load better than back-to-back pairs.
  double best_off = 0.0;
  double best_on = 0.0;
  std::optional<RunResult> last_off;
  std::optional<RunResult> last_on;
  obs::FoldedProfile profile;
  for (int rep = 0; rep < 2; ++rep) {
    RunResult off = run_once(nullptr);
    obs::SpanProfiler profiler;  // fresh per run: profile == one campaign
    RunResult on = run_once(&profiler);
    profile = profiler.profile();
    std::printf("  rep %d: off %.3f s | on %.3f s (%llu samples, %llu ticks)\n",
                rep, off.seconds, on.seconds,
                static_cast<unsigned long long>(profile.total_samples),
                static_cast<unsigned long long>(profile.ticks));
    best_off = best_off == 0.0 ? off.seconds : std::min(best_off, off.seconds);
    best_on = best_on == 0.0 ? on.seconds : std::min(best_on, on.seconds);
    last_off = std::move(off);
    last_on = std::move(on);
  }

  const bool identical = same_estimates(last_off->campaign, last_on->campaign);
  const double ratio = best_off > 0.0 ? best_on / best_off : 0.0;
  const bool sampled = profile.total_samples > 0 && !profile.rows.empty();
  std::printf("\n");
  bench::paper_vs_measured("profiler-on / profiler-off wall clock", 1.05,
                           ratio, "x");
  std::printf("  estimates bit-identical on vs off: %s\n",
              identical ? "PASS" : "FAIL");
  std::printf("  overhead ceiling (noise-tolerant): %.2fx -> %s\n",
              kOverheadCeiling, ratio <= kOverheadCeiling ? "PASS" : "FAIL");
  std::printf("  profiler captured samples:         %s\n",
              sampled ? "PASS" : "FAIL");
  if (sampled) {
    std::printf("\n%s", profile.attribution_table().c_str());
    std::filesystem::create_directories("bench_out");
    std::ofstream folded("bench_out/profile.folded");
    folded << profile.to_folded();
    std::printf("\n  folded stacks: bench_out/profile.folded\n");
  }

  const bool ok = identical && ratio <= kOverheadCeiling && sampled;
  std::printf("profiler overhead: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// steady_alloc_gate (--census [--baseline FILE]) and --report-only

struct CensusResult {
  std::size_t rounds_measured = 0;
  std::uint64_t max_allocs = 0;
  double mean_allocs = 0.0;
};

/// Drives the campaign cadence by hand (advance + exchange_and_estimate,
/// serial) so the driving-thread allocation delta around each warm round's
/// exchange and estimate is exact (the drive itself is not bracketed):
/// warm-up and the first kWarmRounds rounds (full searches, full V2V
/// transfers) are excluded, the census window covers only the steady
/// state the zero-alloc target is about.
CensusResult run_census_campaign() {
  sim::Campaign campaign(make_scenario(), make_config());

  CensusResult out;
  std::uint64_t total = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    if (!campaign.advance()) break;
    if (round == kWarmRounds) {
      obs::enable_alloc_census(true);
      obs::reset_alloc_census();
    }
    const obs::AllocTotals before = obs::thread_alloc_totals();
    (void)campaign.exchange_and_estimate();
    const std::uint64_t allocs =
        (obs::thread_alloc_totals() - before).count;
    if (round >= kWarmRounds) {
      ++out.rounds_measured;
      total += allocs;
      out.max_allocs = std::max(out.max_allocs, allocs);
    }
  }
  obs::enable_alloc_census(false);
  if (out.rounds_measured > 0) {
    out.mean_allocs =
        static_cast<double>(total) / static_cast<double>(out.rounds_measured);
  }
  return out;
}

void print_census_table() {
  const std::vector<obs::AllocCensusRow> rows = obs::alloc_census();
  std::printf("\nwarm-path allocation census (by active span):\n");
  std::printf("  %-28s %12s %14s\n", "stage", "allocs", "bytes");
  for (const obs::AllocCensusRow& row : rows) {
    std::printf("  %-28s %12llu %14llu\n", row.stage,
                static_cast<unsigned long long>(row.count),
                static_cast<unsigned long long>(row.bytes));
  }
  if (rows.empty()) std::printf("  (census empty)\n");
}

int run_census(const std::string& baseline_path, bool report_only) {
  bench::header("profile", "warm-path allocation census (warm fleet, N=16)");
  if (!obs::alloc_accounting_available()) {
    std::printf(
        "  allocation accounting unavailable in this build (sanitizer owns\n"
        "  the allocator) — steady_alloc_gate skipped\n");
    return 77;  // ctest SKIP_RETURN_CODE
  }
  std::printf("  %zu vehicles, %zu rounds (%zu warm-up), clean channel, "
              "serial batches\n",
              kVehicles, kRounds, kWarmRounds);

  const CensusResult census = run_census_campaign();
  if (census.rounds_measured == 0) {
    std::printf("steady alloc: FAIL (no rounds measured)\n");
    return 1;
  }

  // The ratchet axes as gauges, so the regression baseline replays them.
  obs::Registry::global().gauge("alloc.round_allocs_max").set(
      static_cast<double>(census.max_allocs));
  obs::Registry::global().gauge("alloc.round_allocs_mean")
      .set(census.mean_allocs);
  obs::publish_alloc_census();

  std::printf("  measured rounds: %zu | allocs/round max %llu, mean %.1f\n",
              census.rounds_measured,
              static_cast<unsigned long long>(census.max_allocs),
              census.mean_allocs);
  print_census_table();
  bench::write_metrics_json("profile");
  std::printf("  metrics json: bench_out/profile_metrics.json\n");

  if (report_only) return 0;

  if (baseline_path.empty()) {
    std::printf("\nsteady alloc: PASS (no --baseline, census only)\n");
    return 0;
  }
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", baseline_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  double baseline_max = 0.0;
  try {
    const util::JsonValue doc = util::JsonValue::parse(buf.str());
    const util::JsonValue* v = doc.find_path("alloc_census.round_allocs_max");
    if (v == nullptr) throw std::runtime_error("missing round_allocs_max");
    baseline_max = v->as_number();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", baseline_path.c_str(), e.what());
    return 1;
  }

  const double ceiling = baseline_max * (1.0 + kAllocRatchetTol);
  const bool ok = static_cast<double>(census.max_allocs) <= ceiling;
  std::printf("\n  ratchet: max allocs/round %llu vs baseline %.0f "
              "(+%.0f%% tolerance -> %.0f)\n",
              static_cast<unsigned long long>(census.max_allocs), baseline_max,
              kAllocRatchetTol * 100.0, ceiling);
  std::printf("steady alloc: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool census = false;
  bool report_only = false;
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--census") == 0) {
      census = true;
    } else if (std::strcmp(argv[i], "--report-only") == 0) {
      report_only = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_profile [--census [--baseline FILE] | "
                   "--report-only]\n");
      return 2;
    }
  }
  if (census || report_only) return run_census(baseline, report_only);
  return run_overhead_gate();
}
