// End-to-end observability: one small campaign must light up the cost
// metrics the paper reports in Sec. VI-E — SYN-search work, V2V
// communication bytes, per-query latency — and the snapshot must survive a
// JSON round trip (what bench binaries write under bench_out/).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/obs.hpp"
#include "sim/campaign.hpp"

namespace rups {
namespace {

sim::CampaignResult run_small_campaign() {
  sim::Scenario scenario =
      sim::Scenario::two_car(7, road::EnvironmentType::kFourLaneUrban);
  scenario.route_length_m = 6'000.0;
  sim::CampaignConfig cfg;
  cfg.rounds = 5;
  cfg.engine.fleet.cache.enabled = false;
  sim::Campaign campaign(scenario, cfg);
  return campaign.run();
}

TEST(ObsPipeline, CampaignProducesCostMetrics) {
  const sim::CampaignResult result = run_small_campaign();
  ASSERT_FALSE(result.outcomes.empty());
  const obs::MetricsSnapshot& snap = result.metrics;

  // SYN-point search cost (Sec. V-A).
  const auto* windows = snap.counter("syn.windows_scanned");
  ASSERT_NE(windows, nullptr);
  EXPECT_GT(windows->value, 0u);
  const auto* seeks = snap.counter("syn.seeks");
  ASSERT_NE(seeks, nullptr);
  EXPECT_GE(seeks->value, result.outcomes.size());

  // V2V communication cost (Sec. V-B): full context + incremental tails.
  const auto* bytes = snap.counter("v2v.payload_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->value, 0u);
  const auto* messages = snap.counter("v2v.messages");
  ASSERT_NE(messages, nullptr);
  EXPECT_GE(messages->value, result.outcomes.size());

  // Simulation-side field evaluations and per-metre emissions.
  EXPECT_GT(snap.counter("gsm.field_evals")->value, 0u);
  EXPECT_GT(snap.counter("engine.metres_emitted")->value, 0u);
  EXPECT_GT(snap.counter("engine.imu_samples")->value, 0u);

  // Per-round latency histogram.
  const auto* latency = snap.histogram("fleetcampaign.round_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->count, result.rounds);
  EXPECT_GT(latency->max, 0.0);

  // The snapshot serializes and parses losslessly.
  EXPECT_EQ(obs::MetricsSnapshot::from_json(snap.to_json()), snap);
}

TEST(ObsPipeline, V2vCostModelMatchesIdealizedEstimatesOnCleanChannel) {
  // With v2v modelling the rear vehicle estimates from the DECODED
  // receiver-side copy, so codec quantization (0.5 dB RSSI, ~3 mrad
  // heading) genuinely reaches SynSeeker. Over a clean channel the copy is
  // complete, so estimates must agree with the idealized sender-side search
  // to well under the paper's metre-level error budget — but no longer
  // bit-for-bit.
  sim::Scenario scenario =
      sim::Scenario::two_car(11, road::EnvironmentType::kFourLaneUrban);
  scenario.route_length_m = 6'000.0;
  sim::CampaignConfig cfg;
  cfg.rounds = 3;
  cfg.engine.fleet.cache.enabled = false;

  cfg.transport = sim::Transport::kRound;
  sim::Campaign campaign_a(scenario, cfg);
  const auto with_v2v = campaign_a.run();

  cfg.transport = sim::Transport::kIdeal;
  sim::Campaign campaign_b(scenario, cfg);
  const auto without_v2v = campaign_b.run();

  // Everything was delivered: no failures, no degradation.
  EXPECT_EQ(with_v2v.health.exchanges, with_v2v.outcomes.size());
  EXPECT_DOUBLE_EQ(with_v2v.health.delivery_failure_rate, 0.0);
  EXPECT_DOUBLE_EQ(with_v2v.health.degraded_rate, 0.0);

  ASSERT_EQ(with_v2v.outcomes.size(), without_v2v.outcomes.size());
  std::size_t hits_a = 0, hits_b = 0, both = 0;
  for (std::size_t i = 0; i < with_v2v.outcomes.size(); ++i) {
    const auto& a = with_v2v.outcomes[i];
    const auto& b = without_v2v.outcomes[i];
    EXPECT_EQ(a.truth_m, b.truth_m);
    hits_a += a.result.estimate.has_value();
    hits_b += b.result.estimate.has_value();
    if (a.result.estimate.has_value() && b.result.estimate.has_value()) {
      ++both;
      EXPECT_NEAR(a.result.estimate->distance_m,
                  b.result.estimate->distance_m, 2.0);
    }
  }
  // Quantization may flip a borderline query either way, but not all of
  // them, and most queries must resolve on both paths.
  EXPECT_LE(hits_a > hits_b ? hits_a - hits_b : hits_b - hits_a, 1u);
  EXPECT_GE(both + 1, with_v2v.outcomes.size());
}

TEST(ObsPipeline, ChromeTraceCapturesCampaignSpans) {
  const auto path =
      std::filesystem::temp_directory_path() / "rups_campaign_trace.json";
  std::uint64_t events = 0;
  {
    obs::ChromeTraceSink sink(path);
    obs::set_trace_sink(&sink);
    (void)run_small_campaign();
    obs::set_trace_sink(nullptr);
    events = sink.events_written();
  }
  EXPECT_GT(events, 0u);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"name\": \"syn.seek\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"fleetcampaign.round\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"v2v.exchange\""), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rups
