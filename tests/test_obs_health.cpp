// Health/SLO monitor: rule evaluation, edge-triggered alerts, report JSON,
// and the end-to-end acceptance path — a campaign with an injected SYN
// drought must raise alerts and leave a diagnostics bundle explaining the
// failing seeks.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/alloc.hpp"
#include "obs/health.hpp"
#include "obs/recorder.hpp"
#include "sim/campaign.hpp"
#include "sim/convoy_sim.hpp"
#include "util/json.hpp"

namespace rups {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

obs::HealthConfig tight_config() {
  obs::HealthConfig cfg;
  cfg.window = 8;
  cfg.min_samples = 4;
  cfg.min_availability = 0.5;
  cfg.max_error_p95_m = 10.0;
  cfg.max_latency_p99_us = 0.0;  // off
  cfg.max_miss_streak = 4;
  return cfg;
}

TEST(HealthMonitor, AvailabilityAndStreakAlertsAreEdgeTriggered) {
  obs::HealthMonitor monitor(tight_config());
  for (int i = 0; i < 10; ++i) monitor.on_query(false, std::nullopt, 100.0);

  auto report = monitor.report();
  EXPECT_EQ(report.samples, 10u);
  EXPECT_DOUBLE_EQ(report.availability, 0.0);
  EXPECT_EQ(report.miss_streak, 10u);
  EXPECT_FALSE(report.healthy());

  // One alert per rule per excursion, not one per violating sample.
  std::size_t availability_alerts = 0;
  std::size_t streak_alerts = 0;
  for (const auto& a : report.alerts) {
    if (a.rule == "availability") ++availability_alerts;
    if (a.rule == "miss_streak") ++streak_alerts;
  }
  EXPECT_EQ(availability_alerts, 1u);
  EXPECT_EQ(streak_alerts, 1u);

  // Recovery re-arms: a second drought fires a second alert.
  for (int i = 0; i < 8; ++i) monitor.on_query(true, 1.0, 100.0);
  EXPECT_TRUE(monitor.report().miss_streak == 0);
  for (int i = 0; i < 8; ++i) monitor.on_query(false, std::nullopt, 100.0);
  report = monitor.report();
  streak_alerts = 0;
  for (const auto& a : report.alerts) {
    if (a.rule == "miss_streak") ++streak_alerts;
  }
  EXPECT_EQ(streak_alerts, 2u);
}

TEST(HealthMonitor, ErrorAndLatencyRules) {
  auto cfg = tight_config();
  cfg.max_latency_p99_us = 1000.0;
  obs::HealthMonitor monitor(cfg);

  for (int i = 0; i < 8; ++i) monitor.on_query(true, 50.0, 5000.0);
  const auto report = monitor.report();
  EXPECT_GT(report.error_p95_m, 10.0);
  EXPECT_GT(report.latency_p99_us, 1000.0);

  bool error_alert = false;
  bool latency_alert = false;
  for (const auto& a : report.alerts) {
    if (a.rule == "error_p95") error_alert = true;
    if (a.rule == "latency_p99") latency_alert = true;
  }
  EXPECT_TRUE(error_alert);
  EXPECT_TRUE(latency_alert);
}

TEST(HealthMonitor, DisabledRulesNeverFire) {
  obs::HealthConfig cfg;
  cfg.window = 8;
  cfg.min_samples = 1;
  cfg.min_availability = 0.0;  // all rules off
  cfg.max_error_p95_m = 0.0;
  cfg.max_latency_p99_us = 0.0;
  cfg.max_miss_streak = 0;
  obs::HealthMonitor monitor(cfg);
  for (int i = 0; i < 20; ++i) monitor.on_query(false, 1e9, 1e9);
  EXPECT_TRUE(monitor.report().healthy());
}

TEST(HealthMonitor, NoAlertsBeforeMinSamples) {
  obs::HealthMonitor monitor(tight_config());  // min_samples = 4
  for (int i = 0; i < 3; ++i) monitor.on_query(false, std::nullopt, 1.0);
  EXPECT_TRUE(monitor.report().healthy());
}

TEST(HealthMonitor, ReportJsonParses) {
  obs::HealthMonitor monitor(tight_config());
  for (int i = 0; i < 6; ++i) monitor.on_query(false, std::nullopt, 250.0);
  const auto doc = util::JsonValue::parse(monitor.report().to_json());
  EXPECT_DOUBLE_EQ(doc.number_or("samples", -1.0), 6.0);
  EXPECT_DOUBLE_EQ(doc.number_or("availability", -1.0), 0.0);
  EXPECT_EQ(doc.find("healthy")->as_bool(), false);
  EXPECT_GE(doc.find("alerts")->as_array().size(), 1u);
  const auto& alert = doc.find("alerts")->as_array()[0];
  EXPECT_FALSE(alert.string_or("rule", "").empty());
  EXPECT_GE(alert.number_or("sample_index", 0.0), 4.0);
}

// Health is always on in the campaign driver, so a warm on_query sits on
// the zero-alloc estimate path: the window quantiles sort in a scratch
// buffer the monitor owns.
TEST(HealthMonitor, WarmOnQueryDoesNotAllocate) {
  if (!obs::alloc_accounting_available()) {
    GTEST_SKIP() << "allocation accounting unavailable in this build";
  }
  obs::HealthMonitor monitor;  // default rules, window 64
  // Fill both windows and register every health.* gauge; no rule fires.
  for (int i = 0; i < 128; ++i) monitor.on_query(true, 1.0 + i % 7, 100.0);
  const obs::AllocTotals before = obs::thread_alloc_totals();
  for (int i = 0; i < 256; ++i) monitor.on_query(true, 2.0 + i % 5, 90.0);
  EXPECT_EQ((obs::thread_alloc_totals() - before).count, 0u);
  EXPECT_TRUE(monitor.report().healthy());
}

// The exporter serves /healthz from its own thread while the driver keeps
// feeding: report() must read a consistent monitor while fire() appends
// alerts (run under tsan in scripts/verify_matrix.sh).
TEST(HealthMonitor, ReportIsSafeWhileFeeding) {
  obs::HealthMonitor monitor(tight_config());
  constexpr std::uint64_t kQueries = 4000;
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  std::uint64_t reports = 0;
  bool monotone = true;
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const obs::HealthReport r = monitor.report();
      monotone = monotone && r.samples >= last &&
                 r.alerts.size() <= r.samples;
      last = r.samples;
      ++reports;
      started.store(true, std::memory_order_release);
    }
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  // Alternating 8-query miss and hit runs: every miss run fires the
  // availability and streak rules, every hit run re-arms them.
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    const bool hit = (i / 8) % 2 == 1;
    monitor.on_query(hit, hit ? std::optional<double>(1.0) : std::nullopt,
                     100.0);
    if (i % 64 == 0) std::this_thread::yield();  // interleave on one core
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(monotone);
  EXPECT_GT(reports, 0u);
  const obs::HealthReport final_report = monitor.report();
  EXPECT_EQ(final_report.samples, kQueries);
  EXPECT_GE(final_report.alerts.size(), kQueries / 16);
}

// Acceptance: a campaign with a forced SYN drought (scanner deafness, as
// in test_failure_injection) produces health alerts in CampaignResult AND
// a diagnostics bundle whose recorder events show the failing seeks.
TEST(HealthMonitor, CampaignSynDroughtProducesDiagnosticsBundle) {
  const fs::path dir = fs::temp_directory_path() / "rups_health_drought";
  fs::remove_all(dir);

  sim::Scenario scenario =
      sim::Scenario::two_car(31, road::EnvironmentType::kFourLaneUrban);
  scenario.route_length_m = 6'000.0;
  scenario.scanner_base.sensitivity_dbm = 0.0;  // total GSM deafness
  sim::CampaignConfig cfg;
  cfg.warmup_s = 350.0;
  cfg.interval_s = 3.0;
  cfg.rounds = 8;
  cfg.transport = sim::Transport::kIdeal;
  cfg.engine.fleet.cache.enabled = false;
  cfg.health = tight_config();
  cfg.diagnostics_dir = dir;

  sim::Campaign campaign(scenario, cfg);
  const auto result = campaign.run();
  ASSERT_GE(result.outcomes.size(), 6u);
  EXPECT_DOUBLE_EQ(result.availability(), 0.0);
  EXPECT_FALSE(result.health.healthy());
  EXPECT_DOUBLE_EQ(result.health.availability, 0.0);
  EXPECT_GE(result.health.miss_streak, 6u);

  // At least one bundle, and it must contain the seek rejections that
  // explain the drought plus the unanswered-estimate verdicts.
  bool found_bundle = false;
  bool found_seek_event = false;
  bool found_estimate_missing = false;
  ASSERT_TRUE(fs::exists(dir));
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto doc = util::JsonValue::parse(slurp(entry.path()));
    EXPECT_EQ(doc.string_or("kind", ""), "rups_diagnostics_bundle");
    ASSERT_NE(doc.find("config"), nullptr);
    EXPECT_NE(doc.find("config")->find("health"), nullptr);
    found_bundle = true;
    for (const auto& event : doc.find("events")->as_array()) {
      const std::string type = event.string_or("type", "");
      if (type == "seek_rejected" || type == "seek_started") {
        found_seek_event = true;
      }
      if (type == "estimate_missing") found_estimate_missing = true;
    }
  }
  EXPECT_TRUE(found_bundle);
  EXPECT_TRUE(found_seek_event);
  EXPECT_TRUE(found_estimate_missing);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rups
