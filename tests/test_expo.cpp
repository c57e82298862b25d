// Prometheus text exposition and the live /metrics exporter: golden-file
// rendering (families, __overflow__ cells, histograms), bit-identical
// re-renders, the tolerant parse_prometheus reader, label-value escaping,
// and socket smoke tests including a scrape taken mid-campaign.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "obs/expo.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "sim/campaign.hpp"

namespace rups::obs {
namespace {

// ---------------------------------------------------------------------------
// Rendering

MetricsSnapshot golden_snapshot() {
  MetricsSnapshot snap;
  snap.counters = {{"campaign.queries", 15},
                   {"fleet.query_outcome{outcome=\"__overflow__\"}", 1},
                   {"fleet.query_outcome{outcome=\"hit\"}", 12},
                   {"fleet.query_outcome{outcome=\"miss\"}", 3}};
  snap.gauges = {{"alloc.count{stage=\"fleet.task\"}", 384.0},
                 {"cache.hit_rate", 0.25}};
  HistogramSample plain;
  plain.name = "fleet.task_us";
  plain.count = 6;
  plain.sum = 25.5;
  plain.min = 1.0;
  plain.max = 12.0;
  plain.bounds = {1.0, 10.0};
  plain.buckets = {1, 2, 3};
  HistogramSample cell;
  cell.name = "fleet.task_us{neighbour=\"3\"}";
  cell.count = 2;
  cell.sum = 7.0;
  snap.histograms = {plain, cell};
  return snap;
}

constexpr const char* kGolden =
    "# TYPE campaign_queries counter\n"
    "campaign_queries 15\n"
    "# TYPE fleet_query_outcome counter\n"
    "fleet_query_outcome{outcome=\"__overflow__\"} 1\n"
    "fleet_query_outcome{outcome=\"hit\"} 12\n"
    "fleet_query_outcome{outcome=\"miss\"} 3\n"
    "# TYPE alloc_count gauge\n"
    "alloc_count{stage=\"fleet.task\"} 384\n"
    "# TYPE cache_hit_rate gauge\n"
    "cache_hit_rate 0.25\n"
    "# TYPE fleet_task_us histogram\n"
    "fleet_task_us_bucket{le=\"1\"} 1\n"
    "fleet_task_us_bucket{le=\"10\"} 3\n"
    "fleet_task_us_bucket{le=\"+Inf\"} 6\n"
    "fleet_task_us_sum 25.5\n"
    "fleet_task_us_count 6\n"
    "fleet_task_us_bucket{neighbour=\"3\",le=\"+Inf\"} 2\n"
    "fleet_task_us_sum{neighbour=\"3\"} 7\n"
    "fleet_task_us_count{neighbour=\"3\"} 2\n";

TEST(Expo, SanitizeMetricName) {
  EXPECT_EQ(sanitize_metric_name("fleet.query_outcome"),
            "fleet_query_outcome");
  EXPECT_EQ(sanitize_metric_name("rups:custom"), "rups:custom");
  EXPECT_EQ(sanitize_metric_name("7teen"), "_7teen");
  EXPECT_EQ(sanitize_metric_name("a-b c"), "a_b_c");
  EXPECT_EQ(sanitize_metric_name(""), "_");
}

TEST(Expo, RenderMatchesGolden) {
  EXPECT_EQ(render_prometheus(golden_snapshot()), kGolden);
}

TEST(Expo, TwoRendersAreBitIdentical) {
  const MetricsSnapshot snap = golden_snapshot();
  EXPECT_EQ(render_prometheus(snap), render_prometheus(snap));
}

TEST(Expo, ParsePrometheusRoundTripsEverySample) {
  const auto samples = parse_prometheus(kGolden);
  // 4 counters + 2 gauges + (3 buckets + sum + count) + (1 bucket + sum +
  // count) = 14 sample lines.
  EXPECT_EQ(samples.size(), 14u);
  EXPECT_DOUBLE_EQ(samples.at("fleet_query_outcome{outcome=\"hit\"}"), 12.0);
  EXPECT_DOUBLE_EQ(
      samples.at("fleet_query_outcome{outcome=\"__overflow__\"}"), 1.0);
  EXPECT_DOUBLE_EQ(samples.at("alloc_count{stage=\"fleet.task\"}"), 384.0);
  EXPECT_DOUBLE_EQ(samples.at("fleet_task_us_bucket{le=\"+Inf\"}"), 6.0);
  EXPECT_DOUBLE_EQ(samples.at("fleet_task_us_sum{neighbour=\"3\"}"), 7.0);
  EXPECT_THROW((void)parse_prometheus("name_without_value\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_prometheus("name not_a_number\n"),
               std::runtime_error);
}

TEST(Expo, HostileLabelValuesAreEscapedAndStillParse) {
  MetricsSnapshot snap;
  // family_cell_name embeds the label value raw; this one carries a quote,
  // a newline and a backslash.
  GaugeSample g;
  g.name = std::string("weird.family{k=\"a\"b\nc\\d\"}");
  g.value = 1.0;
  snap.gauges = {g};
  const std::string text = render_prometheus(snap);
  // Escaped per the exposition format: \" for the quote, \n (two chars)
  // for the newline, \\ for the backslash — the rendered text itself has
  // no raw newline inside the label.
  EXPECT_NE(text.find("weird_family{k=\"a\\\"b\\nc\\\\d\"} 1\n"),
            std::string::npos);
  const auto samples = parse_prometheus(text);
  EXPECT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples.begin()->second, 1.0);
}

// ---------------------------------------------------------------------------
// Exporter smoke tests (real sockets on 127.0.0.1, ephemeral ports)

TEST(MetricsExporter, ServesMetricsHealthAnd404) {
  MetricsExporter exporter({}, [] { return golden_snapshot(); });
  ASSERT_TRUE(exporter.start());
  ASSERT_NE(exporter.port(), 0);

  std::string body;
  EXPECT_EQ(http_get("127.0.0.1", exporter.port(), "/metrics", body), 200);
  EXPECT_EQ(body, kGolden);

  // No health callback: /healthz reports a default (alert-free) verdict.
  EXPECT_EQ(http_get("127.0.0.1", exporter.port(), "/healthz", body), 200);
  EXPECT_NE(body.find("\"healthy\""), std::string::npos);

  EXPECT_EQ(http_get("127.0.0.1", exporter.port(), "/nope", body), 404);

  EXPECT_EQ(exporter.requests(), 3u);
  exporter.stop();
  exporter.stop();  // idempotent
  EXPECT_FALSE(exporter.running());
  EXPECT_EQ(http_get("127.0.0.1", exporter.port(), "/metrics", body), -1);
}

TEST(MetricsExporter, UnhealthyReportYields503) {
  MetricsExporter exporter(
      {}, [] { return MetricsSnapshot{}; },
      [] {
        HealthReport report;
        report.alerts.push_back({"availability", 0.1, 0.9, 0.0, 10});
        return report;
      });
  ASSERT_TRUE(exporter.start());
  std::string body;
  EXPECT_EQ(http_get("127.0.0.1", exporter.port(), "/healthz", body), 503);
  EXPECT_NE(body.find("availability"), std::string::npos);
  exporter.stop();
}

TEST(MetricsExporter, ServesLiveRegistryMidCampaign) {
  // A short fleet campaign runs on a worker thread while this thread
  // scrapes: every scrape must return parseable exposition, and once the
  // campaign has run the fleet outcome family must appear.
  sim::Scenario scenario =
      sim::Scenario::fleet(3, road::EnvironmentType::kFourLaneUrban, 3);
  sim::CampaignConfig cfg;
  cfg.rounds = 6;

  MetricsExporter exporter(
      {}, [] { return Registry::global().snapshot(); });
  ASSERT_TRUE(exporter.start());

  std::atomic<bool> done{false};
  std::thread campaign([&] {
    sim::Campaign campaign(scenario, cfg);
    (void)campaign.run();
    done.store(true);
  });

  std::size_t scrapes = 0;
  while (!done.load()) {
    std::string body;
    ASSERT_EQ(http_get("127.0.0.1", exporter.port(), "/metrics", body), 200);
    EXPECT_NO_THROW((void)parse_prometheus(body));
    ++scrapes;
  }
  campaign.join();

  std::string body;
  ASSERT_EQ(http_get("127.0.0.1", exporter.port(), "/metrics", body), 200);
  EXPECT_NE(body.find("fleet_query_outcome{outcome="), std::string::npos);
  exporter.stop();
  EXPECT_GE(scrapes, 1u);
}

}  // namespace
}  // namespace rups::obs
