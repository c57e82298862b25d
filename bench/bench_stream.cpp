// Streaming efficiency vs the round protocol (DESIGN §17): the SAME seeded
// CityFleet drive runs twice per fault profile — once as a per-metre
// beacon-diff stream (stream::StreamingEngine) and once as the PR 5
// full+tail round baseline — so bytes-per-estimate, accuracy and staleness
// compare like for like. Both modes pay their initial sync; errors and
// staleness are accounted post-warmup at an identical per-metre cadence.
//
// Three enforced properties (nonzero exit on violation):
//   1. efficiency — beacon diffs cut wire bytes per delivered estimate by
//      >= 5x on every profile (clean, urban ~5% burst loss, congested).
//   2. equal accuracy — the streaming mean |error| stays within 10% (with
//      a 0.25 m codec-quantization floor) of the batch baseline's.
//   3. freshness — streaming staleness p99 stays under half the round
//      interval even on the urban profile (the batch baseline is pinned
//      near a full interval by construction), and never exceeds batch.
//
// The campaign is fixed-size and seeded (RUPS_BENCH_SCALE is ignored) so
// the stream.* counters and the per-profile gauges in
// bench_out/stream_metrics.json are deterministic and can be diffed by
// scripts/bench_regression.sh (stream_metrics section).

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "sim/campaign.hpp"
#include "util/stats.hpp"
#include "v2v/channel.hpp"

using namespace rups;

namespace {

constexpr double kIntervalS = 1.0;
// A pair at distance d resolves once both contexts reach the checking
// window PLUS d (~85 + 60 m for the farthest neighbour => round ~13);
// accounting starts after every pair is warm so staleness measures the
// exchange protocol, not the estimator's cold-start geometry.
constexpr std::size_t kWarmupRounds = 14;

sim::CityFleetConfig city_config() {
  sim::CityFleetConfig city;
  city.vehicles = 5;  // the ego (vehicle 0) and four neighbours
  city.channels = 24;
  city.context_capacity_m = 200;
  city.spacing_m = 15.0;
  // Constant convoy speed: staleness must measure the PROTOCOL, so every
  // pair has to stay resolvable for the whole drive. With a spread advance
  // band a neighbour slower than the (rearmost) ego falls behind it and
  // the seek geometry legitimately starves — in both modes alike, which
  // would swamp the protocol-staleness comparison. Drift stress lives in
  // bench_fleet_scaling / bench_fault_sweep.
  city.min_advance_m = 11;
  city.max_advance_m = 11;
  city.seed = 0x57E4'11FEULL;
  return city;
}

/// One mode's figures; errors and staleness exclude the warm-up rounds
/// (exchange and estimation run from round 0 in both modes).
struct ModeResult {
  std::uint64_t estimates = 0;
  /// Wire bytes over the WHOLE campaign: both modes pay their initial
  /// sync, so bytes_per_estimate is comparable.
  std::size_t bytes = 0;
  double bytes_per_estimate = 0.0;
  double mean_error = 0.0;
  double staleness_p50 = 0.0;
  double staleness_p99 = 0.0;
  stream::BeaconStats beacons;
};

ModeResult run_mode(const v2v::FaultConfig& fault, sim::Transport transport) {
  sim::CampaignConfig cfg;
  cfg.warmup_s = 0.0;
  cfg.interval_s = kIntervalS;
  cfg.rounds = 34;
  cfg.transport = transport;
  cfg.fault = fault;
  sim::Campaign campaign(city_config(), cfg);
  const sim::CampaignResult r = campaign.run();

  const double from_s = static_cast<double>(kWarmupRounds) * kIntervalS;
  ModeResult out;
  std::vector<double> errors;
  for (const sim::CampaignOutcome& o : r.outcomes) {
    if (!o.result.estimate.has_value()) continue;
    ++out.estimates;
    if (o.time_s > from_s) errors.push_back(*o.rups_error());
  }
  out.bytes = r.v2v_bytes;
  out.bytes_per_estimate =
      out.estimates > 0 ? static_cast<double>(out.bytes) /
                              static_cast<double>(out.estimates)
                        : 0.0;
  out.mean_error = util::mean(errors);
  // Staleness is sampled for every neighbour at every metre in both modes,
  // so the quantiles are comparable.
  const std::vector<double> staleness = r.staleness_after(from_s);
  out.staleness_p50 = util::percentile(staleness, 0.50);
  out.staleness_p99 = util::percentile(staleness, 0.99);
  out.beacons = r.beacons;
  return out;
}

struct ProfileRow {
  std::string name;
  ModeResult streamed;
  ModeResult batch;
};

}  // namespace

int main() {
  bench::header("Sec §17", "streaming beacon-diff vs round full+tail");

  const std::vector<std::pair<std::string, v2v::FaultConfig>> profiles = {
      {"clean", v2v::FaultConfig::clean()},
      {"urban", v2v::FaultConfig::urban()},
      {"congested", v2v::FaultConfig::congested()},
  };

  std::vector<ProfileRow> rows;
  for (const auto& [name, fault] : profiles) {
    ProfileRow row;
    row.name = name;
    row.streamed = run_mode(fault, sim::Transport::kBeacon);
    row.batch = run_mode(fault, sim::Transport::kRound);
    rows.push_back(std::move(row));
  }

  auto csv = bench::csv_out("stream_efficiency");
  csv.row(std::vector<std::string>{
      "profile", "mode", "estimates", "bytes", "bytes_per_estimate",
      "mean_err_m", "staleness_p50_s", "staleness_p99_s", "resyncs",
      "rerequests"});

  auto& reg = obs::Registry::global();
  std::printf("  %-10s %-7s %9s %10s %8s %9s %8s %8s\n", "profile", "mode",
              "estimates", "bytes", "B/est", "err(m)", "p50(s)", "p99(s)");
  for (const auto& row : rows) {
    const auto print_mode = [&](const char* mode,
                                const ModeResult& r) {
      std::printf("  %-10s %-7s %9llu %10zu %8.1f %9.3f %8.3f %8.3f\n",
                  row.name.c_str(), mode,
                  static_cast<unsigned long long>(r.estimates), r.bytes,
                  r.bytes_per_estimate, r.mean_error, r.staleness_p50,
                  r.staleness_p99);
      csv.row(std::vector<std::string>{
          row.name, mode, std::to_string(r.estimates),
          std::to_string(r.bytes), std::to_string(r.bytes_per_estimate),
          std::to_string(r.mean_error), std::to_string(r.staleness_p50),
          std::to_string(r.staleness_p99),
          std::to_string(r.beacons.resyncs),
          std::to_string(r.beacons.rerequests)});
      // Appended piecewise: GCC 12 misreports `"." + std::string` here as
      // an overlapping memcpy (-Wrestrict).
      std::string suffix = ".";
      suffix += mode;
      suffix += '.';
      suffix += row.name;
      reg.gauge("streambench.bytes_per_estimate" + suffix)
          .set(r.bytes_per_estimate);
      reg.gauge("streambench.mean_err_m" + suffix).set(r.mean_error);
      reg.gauge("streambench.staleness_p99_s" + suffix).set(r.staleness_p99);
    };
    print_mode("stream", row.streamed);
    print_mode("batch", row.batch);
    reg.gauge("streambench.reduction." + row.name)
        .set(row.streamed.bytes_per_estimate > 0.0
                 ? row.batch.bytes_per_estimate /
                       row.streamed.bytes_per_estimate
                 : 0.0);
  }

  bool pass = true;
  for (const auto& row : rows) {
    const ModeResult& s = row.streamed;
    const ModeResult& b = row.batch;
    if (s.estimates == 0 || b.estimates == 0) {
      std::printf("  FAIL[%s]: a mode produced no estimates\n",
                  row.name.c_str());
      pass = false;
      continue;
    }

    // 1. Bytes-per-estimate: the beacon diffs must amortize the per-packet
    //    overhead at least 5x better than one tail exchange per round.
    const double reduction = b.bytes_per_estimate / s.bytes_per_estimate;
    std::printf("  %-10s bytes/estimate reduction %5.2fx (need >= 5.0x)\n",
                row.name.c_str(), reduction);
    if (!(reduction >= 5.0)) {
      std::printf("  FAIL[%s]: streaming lost its wire-efficiency edge\n",
                  row.name.c_str());
      pass = false;
    }

    // 2. Equal accuracy: same codec, same channel, same estimator — the
    //    per-metre cadence must not degrade the estimates it delivers.
    const double err_budget =
        std::max(b.mean_error * 1.10, b.mean_error + 0.25);
    if (!(s.mean_error <= err_budget)) {
      std::printf("  FAIL[%s]: stream mean err %.3f m vs budget %.3f m\n",
                  row.name.c_str(), s.mean_error, err_budget);
      pass = false;
    }

    // 3. Freshness: estimates refresh every metre, so staleness p99 must
    //    stay well under the round interval even when beacons degrade, and
    //    streaming must never be MORE stale than the round baseline.
    const double staleness_budget = 0.5 * kIntervalS;
    const double p99 = s.staleness_p99;
    if (!(p99 <= staleness_budget)) {
      std::printf("  FAIL[%s]: stream staleness p99 %.3f s over budget %.3f s\n",
                  row.name.c_str(), p99, staleness_budget);
      pass = false;
    }
    if (!(p99 <= b.staleness_p99)) {
      std::printf("  FAIL[%s]: streaming staler than the round baseline\n",
                  row.name.c_str());
      pass = false;
    }
  }

  bench::note("both modes pay their initial sync; errors/staleness are "
              "post-warmup at the same per-metre cadence");
  bench::write_metrics_json("stream");
  bench::print_stage_breakdown();
  std::printf("  stream efficiency gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
