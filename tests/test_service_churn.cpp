// Arena hygiene of MatcherService under vehicle churn: deregistering must
// return freelist slots (vehicle, pair-session), purge queued requests that
// still reference the released slot, and drop stale SynCache state — so 1k
// migrate cycles leave the arena census exactly flat.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "service/matcher_service.hpp"
#include "sim/service_sim.hpp"

namespace rups {
namespace {

service::ServiceConfig small_service() {
  service::ServiceConfig cfg;
  cfg.fleet.rups.channels = 12;
  cfg.fleet.rups.context_capacity_m = 120;
  cfg.shard_count = 2;
  cfg.queue_capacity = 64;
  cfg.max_vehicles = 16;
  cfg.max_sessions = 64;
  return cfg;
}

/// Feed `rounds` of CityFleet context into the service.
void feed(service::MatcherService& svc, sim::CityFleet& city,
          std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) {
    city.advance_round();
    svc.begin_round();
    for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
      for (const auto& s : city.samples(v)) {
        (void)svc.observe(city.vehicle_id(v), s.position_m, s.geo, s.power);
      }
    }
  }
}

TEST(ServiceChurn, DeregisterReturnsVehicleSlotToFreelist) {
  service::MatcherService svc(small_service());
  for (std::uint64_t id = 1; id <= 16; ++id) {
    ASSERT_TRUE(svc.register_vehicle(id, static_cast<double>(id)));
  }
  EXPECT_FALSE(svc.register_vehicle(99, 0.0));  // arena full

  EXPECT_TRUE(svc.deregister_vehicle(7));
  EXPECT_EQ(svc.vehicle_count(), 15u);
  EXPECT_TRUE(svc.register_vehicle(99, 0.0));  // the slot came back
  EXPECT_EQ(svc.vehicle_count(), 16u);
}

TEST(ServiceChurn, MidRoundDeregisterPurgesQueuedRequests) {
  service::MatcherService svc(small_service());
  ASSERT_TRUE(svc.register_vehicle(1, 10.0));
  ASSERT_TRUE(svc.register_vehicle(2, 20.0));
  ASSERT_TRUE(svc.register_vehicle(3, 30.0));

  svc.begin_round();
  const auto t12 = svc.submit(1, 2);
  const auto t13 = svc.submit(1, 3);
  ASSERT_TRUE(t12.accepted());
  ASSERT_TRUE(t13.accepted());

  // Vehicle 2 leaves while its request is still queued. The drain must not
  // touch the released slot; the ticket resolves to "no estimate".
  ASSERT_TRUE(svc.deregister_vehicle(2));
  svc.drain();
  EXPECT_FALSE(svc.result(t12).estimate.has_value());
  // The untouched pair still drained normally (no estimate expected — the
  // contexts are empty — but the request was processed, not purged).
  EXPECT_EQ(svc.shard_stats(t13.shard).processed +
                svc.shard_stats(1 - t13.shard).processed,
            1u);
}

TEST(ServiceChurn, ArenaCensusFlatOverThousandMigrateCycles) {
  sim::CityFleetConfig ccfg;
  ccfg.vehicles = 6;
  ccfg.channels = 12;
  ccfg.context_capacity_m = 120;
  ccfg.seed = 0xC0FFEE;
  sim::CityFleet city(ccfg);

  service::MatcherService svc(small_service());
  for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
    ASSERT_TRUE(svc.register_vehicle(city.vehicle_id(v), city.position(v)));
  }
  feed(svc, city, 4);  // build context so drains do real work

  const std::size_t vehicles0 = svc.vehicle_count();

  for (int cycle = 0; cycle < 1000; ++cycle) {
    // One vehicle "migrates": full deregister (slot, sessions, caches)
    // then immediate re-register at a new position.
    const std::size_t migrant = 1 + static_cast<std::size_t>(cycle % 5);
    const std::uint64_t id = city.vehicle_id(migrant);
    ASSERT_TRUE(svc.deregister_vehicle(id));
    ASSERT_TRUE(svc.register_vehicle(id, city.position(migrant)));

    // Keep a live round going across the churn.
    city.advance_round();
    svc.begin_round();
    for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
      for (const auto& s : city.samples(v)) {
        (void)svc.observe(city.vehicle_id(v), s.position_m, s.geo, s.power);
      }
    }
    for (const auto& q : city.queries()) {
      (void)svc.submit(city.vehicle_id(q.ego), city.vehicle_id(q.neighbour));
    }
    svc.drain();

    // Census: every arena returns to its pre-cycle occupancy.
    ASSERT_EQ(svc.vehicle_count(), vehicles0) << "cycle " << cycle;
    ASSERT_LE(svc.session_count(), svc.config().max_sessions);
  }
}

TEST(ServiceChurn, SessionArenaBoundedUnderPairChurn) {
  service::ServiceConfig cfg = small_service();
  cfg.max_sessions = 8;
  service::MatcherService svc(cfg);
  for (std::uint64_t id = 1; id <= 10; ++id) {
    ASSERT_TRUE(svc.register_vehicle(id, static_cast<double>(id) * 10.0));
  }
  // Sessions are created per distinct pair and released on deregister;
  // churning one vehicle through many partners must never exhaust the
  // arena, because its sessions die with it.
  for (int cycle = 0; cycle < 200; ++cycle) {
    svc.begin_round();
    for (std::uint64_t nb = 2; nb <= 8; ++nb) {
      const auto t = svc.submit(1, nb);
      ASSERT_TRUE(t.accepted()) << "cycle " << cycle << " nb " << nb;
    }
    svc.drain();
    ASSERT_TRUE(svc.deregister_vehicle(1));
    ASSERT_TRUE(svc.register_vehicle(1, 10.0));
    ASSERT_EQ(svc.session_count(), 0u) << "sessions leaked, cycle " << cycle;
  }
}

}  // namespace
}  // namespace rups
