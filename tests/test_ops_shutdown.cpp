// Shutdown-ordering contract for the ops plane: with a campaign's spans
// flowing into a ChromeTraceSink while the sampling profiler and the
// /metrics exporter run, tearing everything down mid-run in the documented
// order (profiler -> exporter -> trace sink) must leave a parseable trace
// JSON file and no stuck threads. This is the test the sanitizer lanes
// replay for data races in the teardown path.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/expo.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/timer.hpp"
#include "sim/campaign.hpp"
#include "util/json.hpp"

namespace rups::obs {
namespace {

TEST(OpsShutdown, OrderedTeardownLeavesParseableTrace) {
  const std::filesystem::path trace_path = "ops_shutdown_trace.json";
  std::filesystem::remove(trace_path);

  {
    ChromeTraceSink sink(trace_path);
    ASSERT_TRUE(sink.ok());
    set_trace_sink(&sink);

    SpanProfiler profiler;
    profiler.start();
    MetricsExporter exporter({},
                             [] { return Registry::global().snapshot(); });
    ASSERT_TRUE(exporter.start());

    // A short campaign emits real nested spans through the sink while the
    // profiler samples them and the exporter serves scrapes.
    sim::Scenario scenario =
        sim::Scenario::fleet(5, road::EnvironmentType::kFourLaneUrban, 3);
    sim::CampaignConfig cfg;
    cfg.rounds = 4;
    sim::Campaign campaign(scenario, cfg);
    (void)campaign.run();

    std::string body;
    EXPECT_EQ(http_get("127.0.0.1", exporter.port(), "/metrics", body), 200);
    EXPECT_FALSE(body.empty());
    EXPECT_GT(sink.events_written(), 0u);

    // The documented order: sampler first (it reads span stacks), then the
    // exporter (it reads the registry), then detach + close the sink.
    profiler.stop();
    EXPECT_GT(profiler.profile().ticks, 0u);
    exporter.stop();
    set_trace_sink(nullptr);
    sink.close();
  }

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  util::JsonValue doc;
  ASSERT_NO_THROW(doc = util::JsonValue::parse(buf.str()))
      << "trace JSON left unparseable by teardown";
  ASSERT_TRUE(doc.is_array());
  EXPECT_FALSE(doc.as_array().empty());
  std::filesystem::remove(trace_path);
}

TEST(OpsShutdown, TeardownWithoutExplicitCloseStillParses) {
  // Destructor-driven teardown (the abort-safe path trace_tool relies on
  // when finish() is bypassed): destroying the sink must close the JSON
  // array even though close() was never called.
  const std::filesystem::path trace_path = "ops_shutdown_trace2.json";
  std::filesystem::remove(trace_path);
  {
    ChromeTraceSink sink(trace_path);
    ASSERT_TRUE(sink.ok());
    set_trace_sink(&sink);
    SpanProfiler profiler;
    profiler.start();
    {
      Histogram& h = Registry::global().histogram("opsshutdown.scratch_us");
      ObsTimer span(&h, "opsshutdown.work");
    }
    profiler.stop();
    set_trace_sink(nullptr);
  }
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_NO_THROW((void)util::JsonValue::parse(buf.str()));
  std::filesystem::remove(trace_path);
}

}  // namespace
}  // namespace rups::obs
