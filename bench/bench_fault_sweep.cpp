// Accuracy vs channel quality (paper Secs. V-B / VI-E): drive ONE convoy
// and, at every query instant, run the trajectory exchange through each
// fault profile side by side — same sender context, same ground truth, so
// the profiles differ only in what survives the channel. The rear vehicle
// estimates from its decoded receiver-side copy, like the campaign driver's
// round transport (sim::Campaign), which cannot pair profiles on one drive.
//
// Two enforced properties (nonzero exit on violation):
//   1. urban (~5% burst loss): end-to-end p95 distance error within 10% of
//      the clean-channel baseline — bounded retransmission absorbs the
//      paper's measured urban loss without accuracy cost.
//   2. blackout (loss_rate = 1.0): terminates, every exchange kFailed,
//      zero estimates — the bounded-retry regression guard at bench scale.
//
// The query count is fixed (RUPS_BENCH_SCALE is ignored) so the v2v.*
// counters in bench_out/fault_sweep_metrics.json are deterministic and can
// be diffed tightly by scripts/bench_regression.sh (fault_metrics section).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/convoy_sim.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "v2v/channel.hpp"
#include "v2v/exchange.hpp"
#include "v2v/link.hpp"
#include "v2v/receiver.hpp"

using namespace rups;

namespace {

struct Profile {
  std::string name;
  v2v::FaultConfig fault;

  std::unique_ptr<v2v::DsrcLink> link;
  std::unique_ptr<v2v::FaultyChannel> channel;
  std::unique_ptr<v2v::ExchangeSession> session;
  std::unique_ptr<v2v::V2vReceiver> receiver;

  std::vector<double> errors;
  std::size_t hits = 0;
  std::size_t delivered = 0;
  std::size_t degraded = 0;
  std::size_t failed = 0;
};

/// Interpolated quantile like util::percentile, except that an empty
/// sample gives NaN, not 0: the blackout profile produces no estimates,
/// and a 0 m error there would read as a perfect score.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

int main() {
  bench::header("Sec V-B/VI-E", "accuracy vs channel quality (fault sweep)");

  // Fixed size: NOT bench::scaled — counter determinism for the regression
  // gate matters more than a faster smoke run here.
  constexpr std::size_t kQueries = 30;
  constexpr double kWarmupS = 350.0;
  constexpr double kIntervalS = 3.0;

  sim::Scenario scenario =
      sim::Scenario::two_car(21, road::EnvironmentType::kFourLaneUrban);
  scenario.route_length_m = 9'000.0;
  sim::ConvoySimulation sim(scenario);

  const auto& rups_cfg = sim.rig(0).engine().config();

  std::vector<Profile> profiles;
  auto add = [&](std::string name, v2v::FaultConfig fault) {
    Profile p;
    p.name = std::move(name);
    p.fault = fault;
    profiles.push_back(std::move(p));
  };
  add("clean", v2v::FaultConfig::clean());
  add("urban", v2v::FaultConfig::urban());
  add("congested", v2v::FaultConfig::congested());
  add("tunnel", v2v::FaultConfig::tunnel());
  for (double rate : {0.1, 0.2, 0.4, 0.6, 0.8}) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "iid_%02d", static_cast<int>(rate * 100));
    add(buf, v2v::FaultConfig::iid(rate));
  }
  add("blackout", v2v::FaultConfig::iid(1.0));

  for (std::size_t i = 0; i < profiles.size(); ++i) {
    auto& p = profiles[i];
    // Every profile gets the same link seed (identical MAC timing) and a
    // profile-specific channel seed.
    p.link = std::make_unique<v2v::DsrcLink>(0xB0B5'CAFEULL);
    p.channel = std::make_unique<v2v::FaultyChannel>(
        util::hash_combine(0xC4A77E1ULL, i), p.fault);
    p.session = std::make_unique<v2v::ExchangeSession>(
        p.link.get(), p.channel.get(), v2v::ExchangeConfig{});
    p.receiver = std::make_unique<v2v::V2vReceiver>(
        rups_cfg.channels, rups_cfg.context_capacity_m);
  }

  sim.run_until(kWarmupS);
  std::size_t issued = 0;
  std::vector<double> ideal_errors;  // sender-side search, no exchange at all
  std::size_t ideal_hits = 0;
  for (std::size_t q = 0; q < kQueries && !sim.finished(); ++q) {
    sim.run_until(kWarmupS + static_cast<double>(q) * kIntervalS);
    const auto& front = sim.rig(0).engine().context();
    ++issued;
    if (const auto err = sim.query(1, 0).rups_error()) {
      ++ideal_hits;
      ideal_errors.push_back(*err);
    }
    for (auto& p : profiles) {
      const bool full = !p.receiver->have_full;
      const auto exchanged =
          full ? p.session->exchange_full(front)
               : p.session->exchange_tail(front, p.receiver->synced_metre);
      (void)p.receiver->ingest(exchanged, full);
      switch (exchanged.outcome) {
        case v2v::ExchangeOutcome::kDelivered: ++p.delivered; break;
        case v2v::ExchangeOutcome::kDegraded: ++p.degraded; break;
        case v2v::ExchangeOutcome::kFailed: ++p.failed; break;
      }
      const auto result = sim.query(1, 0, p.receiver->received);
      if (const auto err = result.rups_error()) {
        ++p.hits;
        p.errors.push_back(*err);
      }
    }
  }

  auto csv = bench::csv_out("fault_sweep");
  csv.row(std::vector<std::string>{"profile", "queries", "hits", "delivered",
                                   "degraded", "failed", "mean_err_m",
                                   "p50_err_m", "p95_err_m"});
  auto& reg = obs::Registry::global();
  std::printf("  %-10s %5s %5s %5s %5s %5s %9s %9s %9s\n", "profile", "qry",
              "hits", "dlv", "deg", "fail", "mean(m)", "p50(m)", "p95(m)");
  std::printf("  %-10s %5zu %5zu %5s %5s %5s %9.3f %9.3f %9.3f\n", "ideal",
              issued, ideal_hits, "-", "-", "-", mean(ideal_errors),
              quantile(ideal_errors, 0.50), quantile(ideal_errors, 0.95));
  csv.row(std::vector<std::string>{
      "ideal", std::to_string(issued), std::to_string(ideal_hits), "-", "-",
      "-", std::to_string(mean(ideal_errors)),
      std::to_string(quantile(ideal_errors, 0.50)),
      std::to_string(quantile(ideal_errors, 0.95))});
  if (!ideal_errors.empty()) {
    reg.gauge("fault.p95_err_m.ideal").set(quantile(ideal_errors, 0.95));
  }
  for (auto& p : profiles) {
    const double p50 = quantile(p.errors, 0.50);
    const double p95 = quantile(p.errors, 0.95);
    const double avg = mean(p.errors);
    std::printf("  %-10s %5zu %5zu %5zu %5zu %5zu %9.3f %9.3f %9.3f\n",
                p.name.c_str(), issued, p.hits, p.delivered, p.degraded,
                p.failed, avg, p50, p95);
    csv.row(std::vector<std::string>{
        p.name, std::to_string(issued), std::to_string(p.hits),
        std::to_string(p.delivered), std::to_string(p.degraded),
        std::to_string(p.failed), std::to_string(avg), std::to_string(p50),
        std::to_string(p95)});
    if (!p.errors.empty()) {
      reg.gauge("fault.p95_err_m." + p.name).set(p95);
    }
    reg.gauge("fault.hits." + p.name).set(static_cast<double>(p.hits));
    reg.gauge("fault.failed." + p.name).set(static_cast<double>(p.failed));
  }

  bool pass = issued == kQueries;
  if (!pass) std::printf("  FAIL: route ended before %zu queries\n", kQueries);

  const auto* clean = &profiles[0];
  const auto* urban = &profiles[1];
  const double clean_p95 = quantile(clean->errors, 0.95);
  const double urban_p95 = quantile(urban->errors, 0.95);
  // 10% relative budget with a 0.25 m absolute floor: at sub-metre p95 the
  // relative bound alone would be tighter than the codec quantization step.
  const double budget = std::max(clean_p95 * 1.10, clean_p95 + 0.25);
  std::printf("  urban-vs-clean p95 gate: clean %.3f m, urban %.3f m, "
              "budget %.3f m\n", clean_p95, urban_p95, budget);
  if (clean->errors.empty() || clean->hits + 2 < issued) {
    std::printf("  FAIL: clean channel should resolve nearly every query\n");
    pass = false;
  }
  if (urban->errors.empty() || !(urban_p95 <= budget)) {
    std::printf("  FAIL: urban p95 outside the 10%% degradation budget\n");
    pass = false;
  }

  const auto* blackout = &profiles.back();
  if (blackout->failed != issued || blackout->hits != 0) {
    std::printf("  FAIL: blackout must fail every exchange and yield no "
                "estimates (failed %zu/%zu, hits %zu)\n",
                blackout->failed, issued, blackout->hits);
    pass = false;
  }
  bench::note("blackout terminating at all is the loss_rate=1.0 regression");

  bench::write_metrics_json("fault_sweep");
  bench::print_stage_breakdown();
  std::printf("  fault degradation gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
