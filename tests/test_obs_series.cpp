#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/campaign.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace rups::obs {
namespace {

TEST(WindowQuantile, EmptyDeltaYieldsZero) {
  EXPECT_DOUBLE_EQ(window_quantile({10.0, 20.0}, {}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(window_quantile({10.0, 20.0}, {0, 0, 0}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(window_quantile({}, {5}, 0.5), 0.0);
}

TEST(WindowQuantile, InterpolatesWithinBuckets) {
  // 10 samples: 5 in (0..10], 4 in (10..20], 1 beyond 20.
  const std::vector<double> bounds{10.0, 20.0};
  const std::vector<std::uint64_t> buckets{5, 4, 1};
  EXPECT_NEAR(window_quantile(bounds, buckets, 0.5), 10.0, 1e-9);
  EXPECT_NEAR(window_quantile(bounds, buckets, 0.8), 17.5, 1e-9);
  EXPECT_DOUBLE_EQ(window_quantile(bounds, buckets, 0.0), 0.0);
}

TEST(WindowQuantile, UnboundedBucketResolvesToLargestFiniteBound) {
  // No per-window min/max exists for a bucket delta, so the honest answer
  // for ranks landing past the last edge is that edge.
  EXPECT_DOUBLE_EQ(window_quantile({10.0, 20.0}, {5, 4, 1}, 0.99), 20.0);
  EXPECT_DOUBLE_EQ(window_quantile({10.0}, {0, 7}, 0.5), 10.0);
  // q clamps to [0, 1].
  EXPECT_DOUBLE_EQ(window_quantile({10.0, 20.0}, {5, 4, 1}, 7.0), 20.0);
}

TEST(Collector, CounterRatesAreDeltasPerSimSecond) {
  TimeSeriesConfig cfg;
  cfg.window_s = 10.0;
  cfg.prefixes = {"tseries_rate."};
  Counter& c = Registry::global().counter("tseries_rate.events");
  Gauge& g = Registry::global().gauge("tseries_rate.level");

  TimeSeriesCollector collector(cfg);
  collector.begin(100.0);
  EXPECT_TRUE(collector.active());
  c.inc(30);
  g.set(3.5);
  collector.observe(105.0);  // mid-window: nothing closes
  collector.observe(110.0);  // closes [100, 110]
  c.inc(10);
  g.set(7.0);
  const TimeSeriesData data = collector.finish(115.0);  // partial [110, 115]
  EXPECT_FALSE(collector.active());

  ASSERT_EQ(data.windows(), 2u);
  EXPECT_DOUBLE_EQ(data.window_begin_s[0], 100.0);
  EXPECT_DOUBLE_EQ(data.window_end_s[0], 110.0);
  EXPECT_DOUBLE_EQ(data.window_begin_s[1], 110.0);
  EXPECT_DOUBLE_EQ(data.window_end_s[1], 115.0);

  const SeriesColumn* rate = data.column("tseries_rate.events", "rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->values[0], 3.0);  // 30 events / 10 s
  EXPECT_DOUBLE_EQ(rate->values[1], 2.0);  // 10 events / 5 s
  const SeriesColumn* last = data.column("tseries_rate.level", "last");
  ASSERT_NE(last, nullptr);
  EXPECT_DOUBLE_EQ(last->values[0], 3.5);
  EXPECT_DOUBLE_EQ(last->values[1], 7.0);
  // The prefix filter keeps the collector's own bookkeeping counters out.
  EXPECT_EQ(data.column("obs.series.windows", "rate"), nullptr);
}

TEST(Collector, HistogramWindowsCarryCountAndQuantilesOfTheDelta) {
  TimeSeriesConfig cfg;
  cfg.window_s = 10.0;
  cfg.prefixes = {"tseries_hist."};
  Histogram& h =
      Registry::global().histogram("tseries_hist.lat_us", {10.0, 20.0});
  h.record(5.0);  // before begin(): must NOT appear in any window delta

  TimeSeriesCollector collector(cfg);
  collector.begin(0.0);
  h.record(5.0);
  h.record(15.0);
  collector.observe(10.0);
  const TimeSeriesData data = collector.finish(12.0);

  ASSERT_EQ(data.windows(), 2u);
  const SeriesColumn* count = data.column("tseries_hist.lat_us", "count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->values[0], 2.0);
  EXPECT_DOUBLE_EQ(count->values[1], 0.0);  // empty window -> zero quantiles
  const SeriesColumn* p50 = data.column("tseries_hist.lat_us", "p50");
  const SeriesColumn* p95 = data.column("tseries_hist.lat_us", "p95");
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p95, nullptr);
  // Delta buckets {1, 1, 0}: rank 1 tops out bucket (0..10], rank 1.9
  // interpolates 90% into (10..20].
  EXPECT_NEAR(p50->values[0], 10.0, 1e-9);
  EXPECT_NEAR(p95->values[0], 19.0, 1e-9);
  EXPECT_DOUBLE_EQ(p50->values[1], 0.0);
}

TEST(Collector, WindowStretchesWhenObservedLessOftenThanCadence) {
  TimeSeriesConfig cfg;
  cfg.window_s = 10.0;
  cfg.prefixes = {"tseries_stretch."};
  Counter& c = Registry::global().counter("tseries_stretch.events");

  TimeSeriesCollector collector(cfg);
  collector.begin(0.0);
  c.inc(50);
  collector.observe(3.0);
  collector.observe(25.0);  // one stretched window [0, 25], not three
  const TimeSeriesData data = collector.finish(25.0);  // nothing left to close

  ASSERT_EQ(data.windows(), 1u);
  EXPECT_DOUBLE_EQ(data.window_begin_s[0], 0.0);
  EXPECT_DOUBLE_EQ(data.window_end_s[0], 25.0);
  const SeriesColumn* rate = data.column("tseries_stretch.events", "rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->values[0], 2.0);  // 50 / 25 s
}

TEST(Collector, StalenessCountsSimTimeSinceLastAcceptedEstimate) {
  TimeSeriesConfig cfg;
  cfg.window_s = 10.0;
  cfg.prefixes = {"tseries_none."};  // staleness is always collected
  TimeSeriesCollector collector(cfg);
  collector.track(2);
  collector.track(7);
  collector.begin(0.0);
  collector.note_estimate(2, 4.0);
  collector.observe(10.0);
  const TimeSeriesData data = collector.finish(18.0);

  ASSERT_EQ(data.windows(), 2u);
  const SeriesColumn* s2 =
      data.column("estimate.staleness_s{neighbour=\"2\"}", "staleness");
  const SeriesColumn* s7 =
      data.column("estimate.staleness_s{neighbour=\"7\"}", "staleness");
  ASSERT_NE(s2, nullptr);
  ASSERT_NE(s7, nullptr);
  EXPECT_DOUBLE_EQ(s2->values[0], 6.0);   // 10 - 4
  EXPECT_DOUBLE_EQ(s2->values[1], 14.0);  // 18 - 4
  // Never-heard-from neighbour: staleness counts from begin().
  EXPECT_DOUBLE_EQ(s7->values[0], 10.0);
  EXPECT_DOUBLE_EQ(s7->values[1], 18.0);
}

TEST(Collector, LateMetricsAreZeroBackfilled) {
  TimeSeriesConfig cfg;
  cfg.window_s = 10.0;
  cfg.prefixes = {"tseries_late."};
  TimeSeriesCollector collector(cfg);
  collector.begin(0.0);
  collector.observe(10.0);  // window 1 closes before the metric exists
  Registry::global().counter("tseries_late.events").inc(20);
  const TimeSeriesData data = collector.finish(20.0);

  ASSERT_EQ(data.windows(), 2u);
  const SeriesColumn* rate = data.column("tseries_late.events", "rate");
  ASSERT_NE(rate, nullptr);
  ASSERT_EQ(rate->values.size(), 2u);
  EXPECT_DOUBLE_EQ(rate->values[0], 0.0);
  EXPECT_DOUBLE_EQ(rate->values[1], 2.0);
}

TEST(Collector, DisabledConfigCollectsNothing) {
  TimeSeriesConfig cfg;
  cfg.enabled = false;
  TimeSeriesCollector collector(cfg);
  collector.begin(0.0);
  collector.observe(100.0);
  EXPECT_FALSE(collector.active());
  EXPECT_TRUE(collector.finish(200.0).empty());
}

TEST(SeriesData, JsonRoundTripPreservesEverything) {
  TimeSeriesData data;
  data.window_s = 30.0;
  data.window_begin_s = {0.0, 30.0};
  data.window_end_s = {30.0, 55.5};
  data.columns.push_back({"a.rate\"weird", "rate", {1.5, 0.0}});
  data.columns.push_back(
      {"estimate.staleness_s{neighbour=\"3\"}", "staleness", {2.0, 27.5}});

  const std::string json = data.to_json();
  EXPECT_NE(json.find("\"kind\": \"rups_time_series\""), std::string::npos);
  const TimeSeriesData parsed = TimeSeriesData::from_json(json);
  EXPECT_EQ(parsed, data);
  EXPECT_EQ(parsed.to_json(), json);
}

TEST(SeriesData, FromJsonRejectsMalformedDocuments) {
  EXPECT_THROW(TimeSeriesData::from_json("not json"), std::runtime_error);
  EXPECT_THROW(TimeSeriesData::from_json("[1, 2]"), std::runtime_error);
  EXPECT_THROW(TimeSeriesData::from_json("{\"window_s\": 1}"),
               std::runtime_error);
  // Column length must match the window count.
  EXPECT_THROW(TimeSeriesData::from_json(
                   "{\"window_s\": 1, \"window_begin_s\": [0], "
                   "\"window_end_s\": [1], \"columns\": "
                   "[{\"name\": \"x\", \"kind\": \"rate\", "
                   "\"values\": [1, 2]}]}"),
               std::runtime_error);
}

TEST(SeriesData, CsvIsOneRowPerWindowWithHashKindHeaders) {
  TimeSeriesData data;
  data.window_s = 10.0;
  data.window_begin_s = {0.0, 10.0};
  data.window_end_s = {10.0, 20.0};
  data.columns.push_back({"q.rate", "rate", {3.0, 4.0}});
  data.columns.push_back({"lat", "p95", {120.0, 95.0}});

  const auto path =
      std::filesystem::temp_directory_path() / "rups_test_series.csv";
  {
    util::CsvWriter csv(path);
    data.write_csv(csv);
    csv.flush();
  }
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("window_begin_s"), std::string::npos);
  EXPECT_NE(header.find("q.rate#rate"), std::string::npos);
  EXPECT_NE(header.find("lat#p95"), std::string::npos);
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, 2u);
  std::filesystem::remove(path);
}

/// Serial vs pooled fleet campaigns must produce the same sim-time series
/// for every deterministic column kind — window boundaries, counter rates,
/// histogram counts and staleness. Excluded: wall-clock quantile columns
/// (p50/p95/p99 of timing histograms), gauge "last" columns (campaign-end
/// gauges leak across runs sharing the global registry), and the
/// fleet.pooled_batches counter (the one metric that SHOULD differ by
/// execution mode).
TEST(SeriesDeterminism, SerialAndPooledFleetRunsMatchOnSimTimeColumns) {
  const auto run = [](util::ThreadPool* pool) {
    sim::CampaignConfig cfg;
    cfg.warmup_s = 350.0;
    cfg.interval_s = 5.0;
    cfg.rounds = 6;
    cfg.series.enabled = true;
    cfg.series.window_s = 12.0;
    cfg.series.prefixes = {"fleet"};  // fleet.* and fleetcampaign.*
    sim::Scenario scenario = sim::Scenario::fleet(
        5, road::EnvironmentType::kFourLaneUrban, 4, /*gap_m=*/30.0);
    scenario.route_length_m = 6'000.0;
    sim::Campaign campaign(scenario, cfg);
    return campaign.run(pool);
  };

  const sim::CampaignResult serial = run(nullptr);
  util::ThreadPool pool(3);
  const sim::CampaignResult pooled = run(&pool);

  ASSERT_FALSE(serial.series.empty());
  EXPECT_EQ(serial.series.window_begin_s, pooled.series.window_begin_s);
  EXPECT_EQ(serial.series.window_end_s, pooled.series.window_end_s);
  ASSERT_EQ(serial.series.columns.size(), pooled.series.columns.size());
  bool saw_staleness = false;
  for (std::size_t i = 0; i < serial.series.columns.size(); ++i) {
    const SeriesColumn& a = serial.series.columns[i];
    const SeriesColumn& b = pooled.series.columns[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    if (a.kind == "p50" || a.kind == "p95" || a.kind == "p99" ||
        a.kind == "last" || a.name == "fleet.pooled_batches") {
      continue;
    }
    EXPECT_EQ(a.values, b.values) << a.name << "#" << a.kind;
    saw_staleness |= a.kind == "staleness";
  }
  EXPECT_TRUE(saw_staleness);
}

}  // namespace
}  // namespace rups::obs
