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
#include "sim/stream_sim.hpp"
#include "v2v/channel.hpp"

using namespace rups;

namespace {

struct ProfileRow {
  std::string name;
  sim::StreamCampaignResult streamed;
  sim::StreamCampaignResult batch;
};

sim::StreamCampaignConfig campaign_config(const v2v::FaultConfig& fault) {
  sim::StreamCampaignConfig cfg;
  cfg.city.vehicles = 5;
  cfg.city.channels = 24;
  cfg.city.context_capacity_m = 200;
  cfg.city.spacing_m = 15.0;
  // Constant convoy speed: staleness must measure the PROTOCOL, so every
  // pair has to stay resolvable for the whole drive. With a spread advance
  // band a neighbour slower than the (rearmost) ego falls behind it and
  // the seek geometry legitimately starves — in both modes alike, which
  // would swamp the protocol-staleness comparison. Drift stress lives in
  // bench_fleet_scaling / bench_fault_sweep.
  cfg.city.min_advance_m = 11;
  cfg.city.max_advance_m = 11;
  cfg.city.seed = 0x57E4'11FEULL;
  cfg.rounds = 34;
  // A pair at distance d resolves once both contexts reach the checking
  // window PLUS d (~85 + 60 m for the farthest neighbour => round ~13);
  // accounting starts after every pair is warm so staleness measures the
  // exchange protocol, not the estimator's cold-start geometry.
  cfg.warmup_rounds = 14;
  cfg.neighbours = 4;
  cfg.fault = fault;
  return cfg;
}

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
    const sim::StreamCampaignConfig cfg = campaign_config(fault);
    ProfileRow row;
    row.name = name;
    row.streamed = sim::run_stream_campaign(cfg);
    row.batch = sim::run_batch_campaign(cfg);
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
                                const sim::StreamCampaignResult& r) {
      std::printf("  %-10s %-7s %9llu %10zu %8.1f %9.3f %8.3f %8.3f\n",
                  row.name.c_str(), mode,
                  static_cast<unsigned long long>(r.estimates), r.bytes,
                  r.bytes_per_estimate, r.mean_error(),
                  r.staleness_quantile(0.50), r.staleness_quantile(0.99));
      csv.row(std::vector<std::string>{
          row.name, mode, std::to_string(r.estimates),
          std::to_string(r.bytes), std::to_string(r.bytes_per_estimate),
          std::to_string(r.mean_error()),
          std::to_string(r.staleness_quantile(0.50)),
          std::to_string(r.staleness_quantile(0.99)),
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
      reg.gauge("streambench.mean_err_m" + suffix).set(r.mean_error());
      reg.gauge("streambench.staleness_p99_s" + suffix)
          .set(r.staleness_quantile(0.99));
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
  const double interval_s = campaign_config(profiles[0].second).city.interval_s;
  for (const auto& row : rows) {
    const sim::StreamCampaignResult& s = row.streamed;
    const sim::StreamCampaignResult& b = row.batch;
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
        std::max(b.mean_error() * 1.10, b.mean_error() + 0.25);
    if (!(s.mean_error() <= err_budget)) {
      std::printf("  FAIL[%s]: stream mean err %.3f m vs budget %.3f m\n",
                  row.name.c_str(), s.mean_error(), err_budget);
      pass = false;
    }

    // 3. Freshness: estimates refresh every metre, so staleness p99 must
    //    stay well under the round interval even when beacons degrade, and
    //    streaming must never be MORE stale than the round baseline.
    const double staleness_budget = 0.5 * interval_s;
    const double p99 = s.staleness_quantile(0.99);
    if (!(p99 <= staleness_budget)) {
      std::printf("  FAIL[%s]: stream staleness p99 %.3f s over budget %.3f s\n",
                  row.name.c_str(), p99, staleness_budget);
      pass = false;
    }
    if (!(p99 <= b.staleness_quantile(0.99))) {
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
