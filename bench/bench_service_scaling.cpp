// Service-scale gate: drives a 10k-vehicle CityFleet through the sharded
// MatcherService and enforces the service-mode contract.
//
// Default mode — service_scaling_gate:
//   * bit-identity: every sharding (1/2/4/8 shards, serial and pooled
//     drains) must reproduce the reference estimates from a plain
//     per-vehicle FleetEngine replay of the same workload, bit for bit;
//   * capacity scaling: warm-round queries-per-second capacity (accepted
//     requests / busiest shard's serial busy time — the throughput an
//     operator gets with one worker per shard) must scale >= 2x from 1 to
//     4 shards;
//   * tail latency: warm-round per-request p99 must stay under budget;
//   * zero-alloc steady state: with allocation accounting available, the
//     driving thread must perform ZERO operator-new calls across an entire
//     warm serial round (observe + submit + drain), ratcheted against the
//     service_census section of BENCH_alloc_baseline.json.
//
// --report-only: a small deterministic service campaign (CityFleet N=24,
// serial) whose admission/routing/session counters are exact functions of
// the seed — emits bench_out/service_scaling_metrics.json, replayed by
// bench_regression.sh pass 8 as the service_metrics section.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "service/matcher_service.hpp"
#include "sim/service_sim.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace {

using namespace rups;

std::string g_baseline_path;  // --baseline FILE (service_census section)

constexpr std::size_t kRounds = 14;
constexpr std::size_t kWarmupRounds = 8;   // context feeding, no queries
constexpr std::size_t kColdQueryRounds = 2;  // first searches, unmeasured
constexpr std::size_t kCensusRounds = 2;   // tail rounds with census on
constexpr double kP99BudgetUs = 5000.0;
constexpr double kMinQpsScaling41 = 2.0;   // 1 -> 4 shards capacity floor

sim::CityFleetConfig city_config(std::size_t vehicles) {
  sim::CityFleetConfig city;
  city.vehicles = vehicles;
  city.channels = 45;
  // 200 m rings fill at round 10 (20 m/round): the first-eviction
  // transition (a one-time buffer handoff per vehicle) is behind us before
  // the census rounds, which then see the true steady state.
  city.context_capacity_m = 200;
  city.spacing_m = 30.0;
  // Lockstep advance keeps every pair's relative geometry constant, so
  // steady-state rounds stay inside the tracking verify radius — the
  // regime the zero-alloc census is about.
  city.min_advance_m = 20;
  city.max_advance_m = 20;
  return city;
}

service::ServiceConfig service_config(std::size_t vehicles,
                                      std::size_t shards) {
  service::ServiceConfig cfg;
  cfg.shard_count = shards;
  cfg.cell_m = 250.0;
  cfg.queue_capacity = vehicles + vehicles / 4 + 16;
  cfg.max_vehicles = vehicles;
  cfg.max_sessions = vehicles + 16;
  cfg.max_round_requests = cfg.queue_capacity;  // same table every config
  cfg.fleet.rups.channels = 45;
  cfg.fleet.rups.context_capacity_m = 200;
  return cfg;
}

/// One query outcome, compared bit for bit across shardings.
struct Outcome {
  bool has_estimate = false;
  double distance_m = 0.0;
  double confidence = 0.0;
  std::size_t syn_count = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

Outcome outcome_of(const core::FleetEngine::NeighbourResult& r) {
  Outcome o;
  o.has_estimate = r.estimate.has_value();
  if (o.has_estimate) {
    o.distance_m = r.estimate->distance_m;
    o.confidence = r.estimate->confidence;
    o.syn_count = r.estimate->syn_count;
  }
  return o;
}

struct RunResult {
  /// outcomes[query_round][query_index]
  std::vector<std::vector<Outcome>> outcomes;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  /// Busiest-shard busy seconds per WARM query round.
  double max_shard_busy_s = 0.0;
  /// Per-request warm latencies (us) across shards and warm rounds.
  std::vector<double> warm_latencies_us;
  /// Census: max operator-new calls on the driving thread across measured
  /// serial rounds (only filled when census_rounds > 0).
  std::uint64_t census_max_allocs = 0;
  std::size_t census_rounds = 0;
};

/// Replay the workload through a MatcherService with `shards` shards.
RunResult run_service(std::size_t vehicles, std::size_t shards, bool pooled,
                      bool census) {
  sim::CityFleet city(city_config(vehicles));
  service::MatcherService svc(service_config(vehicles, shards));
  std::optional<util::ThreadPool> pool;
  if (pooled) pool.emplace(4);

  for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
    (void)svc.register_vehicle(city.vehicle_id(v), city.position(v));
  }

  RunResult out;
  std::vector<service::MatcherService::Ticket> tickets;
  tickets.reserve(city.queries().size());

  for (std::size_t round = 0; round < kRounds; ++round) {
    city.advance_round();

    const bool measured_census =
        census && !pooled && round >= kRounds - kCensusRounds;
    if (measured_census && out.census_rounds == 0) {
      obs::enable_alloc_census(true);
      obs::reset_alloc_census();
    }
    const obs::AllocTotals before = obs::thread_alloc_totals();

    svc.begin_round();
    for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
      for (const sim::CityFleet::Sample& s : city.samples(v)) {
        (void)svc.observe(city.vehicle_id(v), s.position_m, s.geo, s.power);
      }
    }
    if (round < kWarmupRounds) continue;

    tickets.clear();
    for (const sim::CityFleet::Query& q : city.queries()) {
      const auto t =
          svc.submit(city.vehicle_id(q.ego), city.vehicle_id(q.neighbour));
      tickets.push_back(t);
      if (t.accepted()) {
        ++out.accepted;
      } else {
        ++out.rejected;
      }
    }
    svc.drain(pool ? &*pool : nullptr);

    if (measured_census) {
      const std::uint64_t allocs =
          (obs::thread_alloc_totals() - before).count;
      out.census_max_allocs = std::max(out.census_max_allocs, allocs);
      ++out.census_rounds;
    }

    auto& round_outcomes = out.outcomes.emplace_back();
    round_outcomes.reserve(tickets.size());
    for (const auto& t : tickets) {
      round_outcomes.push_back(t.accepted() ? outcome_of(svc.result(t))
                                            : Outcome{});
    }

    const bool warm = round >= kWarmupRounds + kColdQueryRounds;
    if (warm) {
      double busiest = 0.0;
      for (std::size_t s = 0; s < svc.shard_count(); ++s) {
        busiest = std::max(busiest, svc.shard_stats(s).busy_us);
        const auto& lat = svc.shard_latencies(s);
        out.warm_latencies_us.insert(out.warm_latencies_us.end(),
                                     lat.begin(), lat.end());
      }
      out.max_shard_busy_s += busiest / 1e6;
    }
  }
  if (census) obs::enable_alloc_census(false);
  return out;
}

/// Reference: the same workload through bare per-vehicle FleetEngines —
/// no shards, no queues, no admission. What a single-process deployment
/// computes.
RunResult run_reference(std::size_t vehicles) {
  sim::CityFleet city(city_config(vehicles));
  const service::ServiceConfig cfg = service_config(vehicles, 1);

  std::vector<core::ContextTrajectory> trajs;
  std::vector<core::FleetEngine> engines;
  trajs.reserve(vehicles);
  engines.reserve(vehicles);
  for (std::size_t v = 0; v < vehicles; ++v) {
    trajs.emplace_back(cfg.fleet.rups.channels,
                       cfg.fleet.rups.context_capacity_m);
    engines.emplace_back(cfg.fleet);
  }

  RunResult out;
  std::vector<core::FleetEngine::NeighbourResult> scratch;
  for (std::size_t round = 0; round < kRounds; ++round) {
    city.advance_round();
    for (std::size_t v = 0; v < vehicles; ++v) {
      for (const sim::CityFleet::Sample& s : city.samples(v)) {
        trajs[v].append(s.geo, s.power);
      }
    }
    if (round < kWarmupRounds) continue;

    auto& round_outcomes = out.outcomes.emplace_back();
    round_outcomes.reserve(city.queries().size());
    for (const sim::CityFleet::Query& q : city.queries()) {
      const core::ContextTrajectory* nb = &trajs[q.neighbour];
      const std::uint64_t nb_id = city.vehicle_id(q.neighbour);
      engines[q.ego].estimate_batch_into(
          trajs[q.ego],
          std::span<const core::ContextTrajectory* const>(&nb, 1),
          std::span<const std::uint64_t>(&nb_id, 1), nullptr, scratch);
      round_outcomes.push_back(outcome_of(scratch[0]));
      ++out.accepted;
    }
  }
  return out;
}

bool same_outcomes(const RunResult& a, const RunResult& b) {
  return a.outcomes == b.outcomes && a.accepted == b.accepted &&
         a.rejected == b.rejected;
}

int run_gate() {
  const std::size_t vehicles =
      std::max<std::size_t>(64, bench::scaled(10'000));
  bench::header("service", "sharded matcher service scaling + zero-alloc");
  std::printf(
      "  %zu vehicles, %zu rounds (%zu warm-up, %zu cold query), "
      "ring query plan\n",
      vehicles, kRounds, kWarmupRounds, kColdQueryRounds);

  const RunResult reference = run_reference(vehicles);

  struct Row {
    std::size_t shards;
    bool pooled;
    RunResult result;
  };
  std::vector<Row> rows;
  for (const std::size_t shards : {1UL, 2UL, 4UL, 8UL}) {
    rows.push_back({shards, false,
                    run_service(vehicles, shards, false, shards == 4)});
  }
  rows.push_back({4, true, run_service(vehicles, 4, true, false)});

  auto csv = bench::csv_out("service_scaling");
  csv.row({"shards", "pooled", "accepted", "rejected", "busy_s",
           "qps_capacity", "p99_us"});

  bool identical = true;
  double qps1 = 0.0;
  double qps4 = 0.0;
  double worst_p99 = 0.0;
  std::printf("  %-7s %-7s %10s %9s %10s %14s %10s %6s\n", "shards", "mode",
              "accepted", "rejected", "busy_s", "qps_capacity", "p99_us",
              "match");
  for (const Row& row : rows) {
    const bool match = same_outcomes(reference, row.result);
    identical = identical && match;
    const double busy = row.result.max_shard_busy_s;
    const double warm_queries =
        static_cast<double>(row.result.warm_latencies_us.size());
    const double qps = busy > 0.0 ? warm_queries / busy : 0.0;
    const double p99 = util::percentile(row.result.warm_latencies_us, 0.99);
    // The p99 budget applies to serial drains: per-request wall time under
    // a pooled drain on an oversubscribed host measures thread scheduling,
    // not service compute. The pooled row still gates on bit-identity.
    if (!row.pooled) worst_p99 = std::max(worst_p99, p99);
    if (row.shards == 1 && !row.pooled) qps1 = qps;
    if (row.shards == 4 && !row.pooled) qps4 = qps;
    std::printf("  %-7zu %-7s %10llu %9llu %10.3f %14.1f %10.1f %6s\n",
                row.shards, row.pooled ? "pooled" : "serial",
                static_cast<unsigned long long>(row.result.accepted),
                static_cast<unsigned long long>(row.result.rejected), busy,
                qps, p99, match ? "yes" : "NO");
    csv.row({static_cast<double>(row.shards), row.pooled ? 1.0 : 0.0,
             static_cast<double>(row.result.accepted),
             static_cast<double>(row.result.rejected), busy, qps, p99});
  }

  const double scaling = qps1 > 0.0 ? qps4 / qps1 : 0.0;
  const std::uint64_t vehicles_sustained =
      rows.front().result.rejected == 0 ? vehicles : 0;
  std::printf("\n");
  bench::paper_vs_measured("qps capacity scaling 1 -> 4 shards (x)", 4.0,
                           scaling, "x");
  std::printf("  vehicles sustained without rejection:  %llu\n",
              static_cast<unsigned long long>(vehicles_sustained));
  std::printf("  estimates bit-identical to unsharded engine: %s\n",
              identical ? "PASS" : "FAIL");
  std::printf("  qps scaling >= %.1fx:               %s\n", kMinQpsScaling41,
              scaling >= kMinQpsScaling41 ? "PASS" : "FAIL");
  std::printf("  warm p99 %.1f us <= %.0f us:       %s\n", worst_p99,
              kP99BudgetUs, worst_p99 <= kP99BudgetUs ? "PASS" : "FAIL");

  bool census_ok = true;
  const Row* census_row = nullptr;
  for (const Row& row : rows) {
    if (row.result.census_rounds > 0) census_row = &row;
  }
  if (!obs::alloc_accounting_available() || census_row == nullptr) {
    std::printf("  zero-alloc census: SKIPPED (accounting unavailable)\n");
  } else {
    // Absent a baseline file the ceiling is the target itself: zero.
    double baseline_max = 0.0;
    if (!g_baseline_path.empty()) {
      std::ifstream in(g_baseline_path);
      if (in) {
        std::ostringstream buf;
        buf << in.rdbuf();
        try {
          const util::JsonValue doc = util::JsonValue::parse(buf.str());
          if (const util::JsonValue* v =
                  doc.find_path("service_census.round_allocs_max")) {
            baseline_max = v->as_number();
          }
        } catch (const std::exception&) {
          baseline_max = 0.0;
        }
      }
    }
    census_ok = static_cast<double>(census_row->result.census_max_allocs) <=
                baseline_max;
    std::printf(
        "  zero-alloc census (serial, %zu rounds): max %llu allocs/round "
        "vs baseline %.0f -> %s\n",
        census_row->result.census_rounds,
        static_cast<unsigned long long>(census_row->result.census_max_allocs),
        baseline_max, census_ok ? "PASS" : "FAIL");
    if (!census_ok) {
      // Span-stage attribution of the leaked allocations.
      for (const obs::AllocCensusRow& row : obs::alloc_census()) {
        std::printf("    stage %-28s count %8llu bytes %10llu\n", row.stage,
                    static_cast<unsigned long long>(row.count),
                    static_cast<unsigned long long>(row.bytes));
      }
    }
  }

  const bool ok = identical && scaling >= kMinQpsScaling41 &&
                  worst_p99 <= kP99BudgetUs && census_ok &&
                  vehicles_sustained >= std::min<std::uint64_t>(vehicles,
                                                                10'000);
  std::printf("service scaling: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int run_report() {
  bench::header("service", "deterministic service campaign (report mode)");
  sim::ServiceCampaignConfig cfg;
  cfg.city.vehicles = 24;
  cfg.city.channels = 45;
  cfg.city.context_capacity_m = 240;
  cfg.city.min_advance_m = 8;
  cfg.city.max_advance_m = 14;
  cfg.rounds = 12;
  cfg.warmup_rounds = 4;
  cfg.pool_threads = 0;
  cfg.service.shard_count = 4;
  cfg.service.queue_capacity = 64;
  cfg.service.max_vehicles = 32;
  cfg.service.max_sessions = 64;

  const sim::ServiceCampaignResult result = sim::run_service_campaign(cfg);
  std::printf(
      "  requests %llu | accepted %llu | rejected %llu | estimates %llu\n",
      static_cast<unsigned long long>(result.requests),
      static_cast<unsigned long long>(result.accepted),
      static_cast<unsigned long long>(result.rejected),
      static_cast<unsigned long long>(result.estimates));
  std::printf("  availability %.3f | mean latency %.1f us\n",
              result.availability, result.mean_latency_us);
  for (std::size_t s = 0; s < result.shard_processed.size(); ++s) {
    std::printf("  shard %zu processed %llu\n", s,
                static_cast<unsigned long long>(result.shard_processed[s]));
  }
  std::printf("  health: %s (%zu alerts)\n",
              result.health.healthy() ? "healthy" : "alerting",
              result.health.alerts.size());

  bench::print_stage_breakdown();
  const auto json = bench::write_metrics_json("service_scaling");
  std::printf("  metrics json: %s\n", json.string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool report_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report-only") == 0) {
      report_only = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      g_baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_service_scaling [--report-only] "
                   "[--baseline FILE]\n");
      return 2;
    }
  }
  return report_only ? run_report() : run_gate();
}
