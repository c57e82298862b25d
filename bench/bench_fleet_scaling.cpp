// Fleet-scale batched estimation sweep: one ego context against N
// neighbour contexts per beacon round, N in {2,4,8,16,32}, serial vs
// ThreadPool-sharded, cold (full SYN search every round) vs warm
// (SynCache tracking). Every mode replays the exact same synthetic
// trajectory sequence, so the estimates must be IDENTICAL across modes —
// the sweep proves the caching/batching layer changes cost, never results.
//
// Quick mode (default, used by the bench regression gate) runs a fixed
// number of rounds regardless of RUPS_BENCH_SCALE so its counters are
// deterministic; set RUPS_FLEET_FULL=1 to add a real 16-vehicle convoy
// campaign compared against the classic pairwise query path.

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "core/fleet.hpp"
#include "core/syn_seeker.hpp"
#include "sim/campaign.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rups;

constexpr std::size_t kChannels = 115;
constexpr std::size_t kInitialM = 600;
constexpr std::size_t kRounds = 12;
constexpr std::size_t kStepM = 2;
constexpr std::size_t kCapacityM = 1000;
constexpr std::size_t kMaxFleet = 32;

/// Per-vehicle pre-generated RSSI matrix [metre][channel], shared by every
/// sweep mode so each mode sees bit-identical inputs.
using RssiLog = std::vector<std::vector<float>>;

RssiLog make_vehicle_log(std::size_t vehicle, std::size_t metres) {
  const util::HashNoise chan_noise(0xC0FFEE);
  // Neighbour j leads the ego by a distinct, stable gap.
  const std::int64_t road_offset =
      vehicle == 0 ? 0 : static_cast<std::int64_t>(20 + 15 * (vehicle - 1));
  util::Rng rng(1000 + vehicle);
  RssiLog log(metres, std::vector<float>(kChannels));
  for (std::size_t i = 0; i < metres; ++i) {
    for (std::size_t c = 0; c < kChannels; ++c) {
      const util::LatticeField1D field(util::hash_combine(17, c), 8.0, 2);
      log[i][c] = static_cast<float>(
          -95.0 + 40.0 * chan_noise.uniform(static_cast<std::int64_t>(c)) +
          6.0 * field.value(static_cast<double>(
                    static_cast<std::int64_t>(i) + road_offset)) +
          rng.gaussian(0.0, 0.5));
    }
  }
  return log;
}

void append_metres(core::ContextTrajectory& t, const RssiLog& log,
                   std::size_t from, std::size_t count) {
  for (std::size_t i = from; i < from + count; ++i) {
    core::PowerVector pv(kChannels);
    for (std::size_t c = 0; c < kChannels; ++c) pv.set(c, log[i][c]);
    t.append(core::GeoSample{}, std::move(pv));
  }
}

struct ModeResult {
  double seconds = 0.0;
  core::SynCache::Stats cache;
  /// results[round][neighbour]
  std::vector<std::vector<core::FleetEngine::NeighbourResult>> results;
};

ModeResult run_mode(const std::vector<RssiLog>& logs, std::size_t fleet_n,
                    bool warm, util::ThreadPool* pool) {
  core::FleetConfig cfg;
  cfg.rups.context_capacity_m = kCapacityM;
  cfg.cache.enabled = warm;
  core::FleetEngine engine(cfg);

  std::vector<core::ContextTrajectory> contexts;
  contexts.reserve(fleet_n + 1);
  for (std::size_t v = 0; v < fleet_n + 1; ++v) {
    contexts.emplace_back(kChannels, kCapacityM);
    append_metres(contexts.back(), logs[v], 0, kInitialM);
  }
  std::vector<const core::ContextTrajectory*> neighbours;
  std::vector<std::uint64_t> ids;
  for (std::size_t v = 1; v < fleet_n + 1; ++v) {
    neighbours.push_back(&contexts[v]);
    ids.push_back(static_cast<std::uint64_t>(v));
  }

  ModeResult out;
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < kRounds; ++round) {
    if (round != 0) {
      const std::size_t from = kInitialM + (round - 1) * kStepM;
      for (std::size_t v = 0; v < fleet_n + 1; ++v) {
        append_metres(contexts[v], logs[v], from, kStepM);
      }
    }
    out.results.push_back(
        engine.estimate_batch(contexts[0], neighbours, ids, pool));
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              started)
                    .count();
  out.cache = engine.cache_stats();
  return out;
}

bool same_results(
    const std::vector<std::vector<core::FleetEngine::NeighbourResult>>& a,
    const std::vector<std::vector<core::FleetEngine::NeighbourResult>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (std::size_t i = 0; i < a[r].size(); ++i) {
      const auto& x = a[r][i];
      const auto& y = b[r][i];
      if (x.estimate.has_value() != y.estimate.has_value()) return false;
      if (x.estimate.has_value() &&
          (x.estimate->distance_m != y.estimate->distance_m ||
           x.estimate->confidence != y.estimate->confidence ||
           x.estimate->syn_count != y.estimate->syn_count)) {
        return false;
      }
      if (x.syn_points.size() != y.syn_points.size()) return false;
      for (std::size_t s = 0; s < x.syn_points.size(); ++s) {
        if (x.syn_points[s].index_a != y.syn_points[s].index_a ||
            x.syn_points[s].index_b != y.syn_points[s].index_b ||
            x.syn_points[s].window_m != y.syn_points[s].window_m ||
            x.syn_points[s].correlation != y.syn_points[s].correlation) {
          return false;
        }
      }
    }
  }
  return true;
}

double hit_rate(const core::SynCache::Stats& s) {
  const std::size_t resolved =
      s.tracking_hits + s.tracking_misses + s.full_searches;
  return resolved == 0
             ? 0.0
             : static_cast<double>(s.tracking_hits) /
                   static_cast<double>(resolved);
}

/// Full mode: a real 16-vehicle convoy campaign through FleetEngine,
/// cross-checked against the classic per-pair query path on the same sim.
bool run_full_campaign() {
  using bench::paper_vs_measured;
  std::printf("----------------------------------------------------------------\n");
  std::printf("full mode: 16-vehicle convoy campaign (RUPS_FLEET_FULL=1)\n");
  std::printf("----------------------------------------------------------------\n");
  sim::Scenario scenario =
      sim::Scenario::fleet(7, road::EnvironmentType::kFourLaneUrban,
                           /*vehicle_count=*/16, /*gap_m=*/25.0);
  scenario.route_length_m = 9'000.0;
  sim::CampaignConfig cfg;
  cfg.warmup_s = 350.0;
  cfg.interval_s = 5.0;
  cfg.rounds = bench::scaled(20);
  sim::Campaign campaign(scenario, cfg);
  const auto result = campaign.run();

  // Pairwise reference on the same (already driven) sim: the rear car
  // queries its immediate leader through the classic engine path.
  std::vector<double> pair_errors;
  sim::ConvoySimulation& convoy = campaign.convoy();
  for (std::size_t i = 0; i + 1 < convoy.vehicle_count(); ++i) {
    const auto q = convoy.query(campaign.ego(), i);
    if (const auto e = q.rups_error()) pair_errors.push_back(*e);
  }
  double pair_mean = 0.0;
  for (const double e : pair_errors) pair_mean += e;
  if (!pair_errors.empty()) {
    pair_mean /= static_cast<double>(pair_errors.size());
  }
  const auto fleet_errors = result.rups_errors();
  double fleet_mean = 0.0;
  for (const double e : fleet_errors) fleet_mean += e;
  if (!fleet_errors.empty()) {
    fleet_mean /= static_cast<double>(fleet_errors.size());
  }

  double latency_us = 0.0;
  for (const auto& o : result.outcomes) latency_us += o.result.latency_us;
  if (!result.outcomes.empty()) {
    latency_us /= static_cast<double>(result.outcomes.size());
  }
  std::printf("  rounds %zu  availability %.2f  cache hit rate %.2f\n",
              result.rounds, result.availability(), hit_rate(result.cache));
  std::printf("  v2v bytes %zu  mean query latency %.0f us\n", result.v2v_bytes,
              latency_us);
  paper_vs_measured("fleet mean |error| vs pairwise (m)", pair_mean,
                    fleet_mean, "m");
  // "Within noise": the fleet path must not degrade accuracy; allow the
  // pairwise snapshot (one query per pair) generous slack vs the campaign
  // average.
  const bool ok = fleet_errors.empty() || pair_errors.empty() ||
                  fleet_mean <= pair_mean + 5.0;
  std::printf("  accuracy check: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace

int main() {
  bench::header("fleet", "batched estimation scaling (ego vs N neighbours)");

  std::printf("  synthetic sweep: %zu rounds, +%zu m/round, %zu m initial "
              "context\n",
              kRounds, kStepM, kInitialM);

  std::vector<RssiLog> logs;
  const std::size_t total_m = kInitialM + kRounds * kStepM;
  for (std::size_t v = 0; v < kMaxFleet + 1; ++v) {
    logs.push_back(make_vehicle_log(v, total_m));
  }

  util::ThreadPool pool(0);
  auto csv = bench::csv_out("fleet_scaling");
  csv.row({"fleet_n", "pooled", "warm_cache", "seconds", "queries_per_s",
           "cache_hit_rate"});

  bool determinism_ok = true;
  double serial_cold_16 = 0.0;
  double pooled_warm_16 = 0.0;
  double hit_rate_16 = 0.0;
  std::printf("  %-8s %-8s %-6s %10s %12s %9s\n", "fleet_n", "mode", "cache",
              "seconds", "queries/s", "hit-rate");
  for (const std::size_t n : {2UL, 4UL, 8UL, 16UL, 32UL}) {
    std::optional<ModeResult> reference;
    for (const bool pooled : {false, true}) {
      for (const bool warm : {false, true}) {
        const ModeResult r =
            run_mode(logs, n, warm, pooled ? &pool : nullptr);
        const double qps =
            static_cast<double>(n * kRounds) / std::max(r.seconds, 1e-9);
        std::printf("  %-8zu %-8s %-6s %10.3f %12.1f %9.2f\n", n,
                    pooled ? "pooled" : "serial", warm ? "warm" : "cold",
                    r.seconds, qps, hit_rate(r.cache));
        csv.row({static_cast<double>(n), pooled ? 1.0 : 0.0, warm ? 1.0 : 0.0,
                 r.seconds, qps, hit_rate(r.cache)});
        if (!reference.has_value()) {
          reference = r;  // serial + cold = the classic per-pair path
        } else if (!same_results(reference->results, r.results)) {
          determinism_ok = false;
          std::printf("  ^ MISMATCH vs serial-cold results\n");
        }
        if (n == 16 && !pooled && !warm) serial_cold_16 = r.seconds;
        if (n == 16 && pooled && warm) {
          pooled_warm_16 = r.seconds;
          hit_rate_16 = hit_rate(r.cache);
        }
      }
    }
  }

  const double speedup =
      pooled_warm_16 > 0.0 ? serial_cold_16 / pooled_warm_16 : 0.0;
  std::printf("\n");
  bench::paper_vs_measured("N=16 pooled+warm speedup vs serial cold (x)", 3.0,
                           speedup, "x");
  bench::paper_vs_measured("N=16 steady-state cache hit rate", 0.80,
                           hit_rate_16, "");
  std::printf("  determinism (all modes == serial cold): %s\n",
              determinism_ok ? "PASS" : "FAIL");

  bool ok = determinism_ok && speedup >= 3.0 && hit_rate_16 >= 0.80;
  if (std::getenv("RUPS_FLEET_FULL") != nullptr) {
    ok = run_full_campaign() && ok;
  }

  bench::print_stage_breakdown();
  const auto json = bench::write_metrics_json("fleet_scaling");
  std::printf("  metrics json: %s\n", json.string().c_str());
  std::printf("fleet scaling: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
