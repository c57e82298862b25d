#include "sim/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace rups::sim {
namespace {

Scenario tiny_scenario() {
  Scenario s = Scenario::two_car(3, road::EnvironmentType::kFourLaneUrban);
  s.route_length_m = 6'000.0;
  return s;
}

/// The paper-figure setup (bench_campaign.hpp): 85 m window, top-45
/// channels, threshold 1.2, selective mean.
Scenario paper_scenario(std::uint64_t seed) {
  Scenario s = Scenario::two_car(seed, road::EnvironmentType::kFourLaneUrban,
                                 /*gap_m=*/40.0);
  s.route_length_m = 6'000.0;
  s.rups.syn.window_m = 85;
  s.rups.syn.top_channels = 45;
  s.rups.syn.coherency_threshold = 1.2;
  s.rups.aggregation = core::Aggregation::kSelectiveMean;
  return s;
}

TEST(Campaign, CollectsRequestedQueries) {
  CampaignConfig cfg;
  cfg.warmup_s = 350.0;
  cfg.interval_s = 5.0;
  cfg.rounds = 10;
  Campaign campaign(tiny_scenario(), cfg);
  const auto result = campaign.run();
  EXPECT_EQ(result.rounds, 10u);
  EXPECT_EQ(result.outcomes.size(), 10u);  // one neighbour
  EXPECT_EQ(result.ticks.size(), 10u);
  EXPECT_GE(campaign.convoy().now(), 350.0 + 10 * 5.0 - 1e-6);
  EXPECT_DOUBLE_EQ(campaign.now(), 350.0 + 10 * 5.0);
}

TEST(Campaign, ErrorAccessorsFilterProperly) {
  CampaignConfig cfg;
  cfg.rounds = 8;
  Campaign campaign(tiny_scenario(), cfg);
  const auto result = campaign.run();
  EXPECT_LE(result.rups_errors().size(), result.outcomes.size());
  EXPECT_LE(result.gps_errors().size(), result.outcomes.size());
  EXPECT_LE(result.syn_errors().size(), result.outcomes.size());
  for (double e : result.rups_errors()) EXPECT_GE(e, 0.0);
  for (double e : result.gps_errors()) EXPECT_GE(e, 0.0);
  const double avail = result.availability();
  EXPECT_GE(avail, 0.0);
  EXPECT_LE(avail, 1.0);
  EXPECT_NEAR(avail,
              static_cast<double>(result.rups_errors().size()) /
                  static_cast<double>(result.outcomes.size()),
              1e-9);
}

TEST(Campaign, EmptyResultOnZeroQueries) {
  CampaignConfig cfg;
  cfg.rounds = 0;
  Campaign campaign(tiny_scenario(), cfg);
  const auto result = campaign.run();
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_EQ(result.availability(), 0.0);
}

// The two-car campaign is the single-neighbour, cache-off case of the
// driver: per query, its estimate and SYN points must be bit-identical to
// the classic ConvoySimulation::query on the same contexts — the sender's
// pristine context (ideal) or a receiver copy decoded through the same
// seeded link and channel (round).
TEST(Campaign, TwoCarMatchesClassicQueryBitForBit) {
  for (const Transport transport : {Transport::kIdeal, Transport::kRound}) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 21ULL}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " transport "
                   << (transport == Transport::kIdeal ? "ideal" : "round"));
      CampaignConfig cfg;
      cfg.transport = transport;
      cfg.fault = v2v::FaultConfig::urban();
      cfg.engine.fleet.cache.enabled = false;
      Campaign campaign(paper_scenario(seed), cfg);
      ConvoySimulation& sim = campaign.convoy();

      // Mirror of the driver's decode path: same link/channel seeds.
      v2v::DsrcLink link(cfg.link_seed);
      v2v::FaultyChannel channel(kFaultSeed + 0, cfg.fault);
      v2v::ExchangeSession session(&link, &channel,
                                   cfg.engine.beacon.exchange);
      const core::RupsConfig& rups = sim.rig(1).engine().config();
      v2v::V2vReceiver receiver(rups.channels, rups.context_capacity_m);

      std::size_t estimates = 0;
      for (int round = 0; round < 8; ++round) {
        ASSERT_TRUE(campaign.advance());
        const auto outcomes = campaign.exchange_and_estimate();
        ASSERT_EQ(outcomes.size(), 1u);
        const CampaignOutcome& o = outcomes[0];
        EXPECT_EQ(o.neighbour, 0u);

        const core::ContextTrajectory& front = sim.rig(0).engine().context();
        const core::ContextTrajectory* view = &front;
        if (transport == Transport::kRound) {
          const bool full = !receiver.have_full;
          (void)receiver.ingest(
              full ? session.exchange_full(front)
                   : session.exchange_tail(front, receiver.synced_metre),
              full);
          view = &receiver.received;
        }
        const auto ref = sim.query(1, 0, *view);

        EXPECT_EQ(o.truth_m, ref.truth);
        ASSERT_EQ(o.result.estimate.has_value(), ref.rups.has_value());
        if (ref.rups.has_value()) {
          ++estimates;
          EXPECT_EQ(o.result.estimate->distance_m, ref.rups->distance_m);
          EXPECT_EQ(o.result.estimate->confidence, ref.rups->confidence);
          EXPECT_EQ(o.result.estimate->syn_count, ref.rups->syn_count);
        }
        ASSERT_EQ(o.result.syn_points.size(), ref.syn_points.size());
        for (std::size_t s = 0; s < ref.syn_points.size(); ++s) {
          EXPECT_EQ(o.result.syn_points[s].index_a, ref.syn_points[s].index_a);
          EXPECT_EQ(o.result.syn_points[s].index_b, ref.syn_points[s].index_b);
          EXPECT_EQ(o.result.syn_points[s].window_m,
                    ref.syn_points[s].window_m);
          EXPECT_EQ(o.result.syn_points[s].correlation,
                    ref.syn_points[s].correlation);
        }
        EXPECT_EQ(std::isnan(o.syn_error_m), std::isnan(ref.syn_error_m));
        if (!std::isnan(ref.syn_error_m)) {
          EXPECT_EQ(o.syn_error_m, ref.syn_error_m);
        }
        EXPECT_EQ(o.gps, ref.gps);
      }
      // A differential check over misses only would prove little.
      EXPECT_GT(estimates, 0u);
    }
  }
}

// Continuous tracking (Sec. V-B) on the physical drive: one full sync,
// then beacon tails every 0.5 s, each re-estimated through SynCache's
// narrow re-verify. The cache must add no error: every estimate equals a
// full search on the same view.
TEST(Campaign, ConvoyBeaconTracksWithinBoundsAndMatchesFullSearch) {
  Scenario scenario = Scenario::two_car(
      42, road::EnvironmentType::kFourLaneUrban, /*gap_m=*/40.0);
  scenario.route_length_m = 8'000.0;
  for (const bool urban : {false, true}) {
    SCOPED_TRACE(urban ? "urban faults" : "clean channel");
    CampaignConfig cfg;
    cfg.warmup_s = 400.0;
    cfg.interval_s = 0.5;
    cfg.rounds = 120;
    cfg.transport = Transport::kBeacon;
    cfg.fault = urban ? v2v::FaultConfig::urban() : v2v::FaultConfig::clean();

    Campaign tracked(scenario, cfg);
    // A tick re-estimates only when a context gained metres.
    std::vector<CampaignOutcome> outcomes;
    std::size_t ticks = 0;
    std::size_t full_bytes = 0;
    while (ticks < cfg.rounds && tracked.advance()) {
      ++ticks;
      for (const CampaignOutcome& o : tracked.exchange_and_estimate()) {
        outcomes.push_back(o);
      }
      // The first beacon is the full context sync.
      if (full_bytes == 0) full_bytes = tracked.v2v_bytes();
    }
    ASSERT_EQ(ticks, cfg.rounds);
    ASSERT_GT(full_bytes, 0u);
    // The beacons after the initial sync cost less than three full syncs.
    EXPECT_LT(tracked.v2v_bytes() - full_bytes, 3 * full_bytes);

    util::RunningStats err;
    for (const CampaignOutcome& o : outcomes) {
      if (const auto e = o.rups_error()) err.add(*e);
    }
    EXPECT_GE(err.count(), 80u);
    EXPECT_LT(err.mean(), 5.0);
    EXPECT_LT(err.max(), 20.0);

    cfg.engine.fleet.cache.enabled = false;
    Campaign searched(scenario, cfg);
    const CampaignResult reference = searched.run();
    ASSERT_EQ(reference.outcomes.size(), outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const auto& a = outcomes[i].result.estimate;
      const auto& b = reference.outcomes[i].result.estimate;
      ASSERT_EQ(a.has_value(), b.has_value()) << "tick " << i;
      if (!a.has_value()) continue;
      EXPECT_EQ(a->distance_m, b->distance_m) << "tick " << i;
      EXPECT_EQ(a->confidence, b->confidence) << "tick " << i;
      EXPECT_EQ(a->syn_count, b->syn_count) << "tick " << i;
    }
  }
}

TEST(Campaign, PooledRoundsMatchSerial) {
  Scenario scenario =
      Scenario::fleet(5, road::EnvironmentType::kFourLaneUrban, 3, 30.0);
  scenario.route_length_m = 6'000.0;
  CampaignConfig cfg;
  cfg.interval_s = 5.0;
  cfg.rounds = 3;
  Campaign serial(scenario, cfg);
  const CampaignResult a = serial.run();
  util::ThreadPool pool(2);
  Campaign pooled(scenario, cfg);
  const CampaignResult b = pooled.run(&pool);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  ASSERT_EQ(a.outcomes.size(), 3u * 2u);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    EXPECT_EQ(x.neighbour, y.neighbour);
    ASSERT_EQ(x.result.estimate.has_value(), y.result.estimate.has_value());
    if (x.result.estimate.has_value()) {
      EXPECT_EQ(x.result.estimate->distance_m, y.result.estimate->distance_m);
    }
    EXPECT_EQ(x.result.syn_points.size(), y.result.syn_points.size());
  }
}

CityFleetConfig small_city() {
  CityFleetConfig city;
  city.vehicles = 3;
  city.channels = 24;
  city.context_capacity_m = 200;
  city.spacing_m = 15.0;
  city.min_advance_m = 11;
  city.max_advance_m = 11;
  return city;
}

CampaignConfig city_config(Transport transport) {
  CampaignConfig cfg;
  cfg.warmup_s = 0.0;
  cfg.interval_s = 1.0;
  cfg.rounds = 20;
  cfg.transport = transport;
  return cfg;
}

TEST(Campaign, CityBeaconEstimatesEveryMetreRoundOncePerRound) {
  Campaign beacon(small_city(), city_config(Transport::kBeacon));
  const CampaignResult streamed = beacon.run();
  Campaign round(small_city(), city_config(Transport::kRound));
  const CampaignResult batch = round.run();

  // Both drives land one metre per tick; only the exchange cadence differs.
  EXPECT_EQ(streamed.rounds, 20u);
  EXPECT_EQ(streamed.ticks.size(), 20u * 11u);
  EXPECT_EQ(streamed.ticks, batch.ticks);
  EXPECT_EQ(batch.neighbours, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(batch.outcomes.size(), 20u * 2u);
  for (const CampaignOutcome& o : batch.outcomes) {
    EXPECT_DOUBLE_EQ(o.time_s, std::round(o.time_s));  // round ends only
  }
  EXPECT_GT(streamed.beacons.beacons, 0u);
  EXPECT_GT(streamed.v2v_bytes, 0u);
  // Beacon diffs amortize per-packet overhead: fewer bytes per estimate.
  const auto bytes_per_estimate = [](const CampaignResult& r) {
    return static_cast<double>(r.v2v_bytes) /
           static_cast<double>(r.rups_errors().size());
  };
  EXPECT_GT(bytes_per_estimate(batch), bytes_per_estimate(streamed));

  // The city drive is exact: once both contexts are warm, every estimate
  // lands on the truth.
  std::size_t warm_estimates = 0;
  for (const CampaignOutcome& o : streamed.outcomes) {
    if (o.time_s <= 12.0 || !o.result.estimate.has_value()) continue;
    ++warm_estimates;
    EXPECT_LT(*o.rups_error(), 1.0) << "at " << o.time_s;
  }
  EXPECT_GT(warm_estimates, 0u);

  // Streaming keeps estimates fresh within a round; the round baseline
  // goes stale by up to a whole interval between exchanges.
  const std::vector<double> s = streamed.staleness_after(10.0);
  const std::vector<double> b = batch.staleness_after(10.0);
  ASSERT_EQ(s.size(), 10u * 11u * 2u);
  ASSERT_EQ(b.size(), s.size());
  EXPECT_LT(*std::max_element(s.begin(), s.end()), 0.5);
  EXPECT_GT(*std::max_element(b.begin(), b.end()), 0.8);
}

}  // namespace
}  // namespace rups::sim
