// The three benchmark workloads. Each is a closed loop with one client on
// one thread (no ThreadPool): the caller hands the system its newest
// context, waits for the estimate(s), then hands over the next. Inputs come
// from the simulators (sim::ConvoySimulation, sim::CityFleet) seeded by
// --seed; generator cost stays outside the timed windows.

#include <array>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/engine.hpp"
#include "service/matcher_service.hpp"
#include "sim/convoy_sim.hpp"
#include "sim/service_sim.hpp"
#include "sim/trace.hpp"
#include "stream/stream_engine.hpp"
#include "util/stats.hpp"
#include "v2v/exchange.hpp"
#include "v2v/receiver.hpp"

namespace rupsbench {
namespace {

using rups::core::ContextTrajectory;

// Nominal wall time of one operation on the reference host (one core of an
// x86-64 server, Release build), generator included. A run performs
// --seconds / nominal operations, so every count and work counter is a
// function of --seed and --seconds only, and the measuring phase lasts
// about --seconds there.
constexpr double kConvoyQueryS = 0.0175;
constexpr double kCityRoundS = 0.023;
constexpr double kStreamMetreS = 0.00095;

/// Set-up is repeated and the median reported, so that set-up time is a
/// steady metric of its own; the last repetition feeds the timed phase.
constexpr int kSetupRepeats = 3;

/// CityFleet estimates are exact by construction (whole metres of one
/// shared field), so an estimate further than this from truth is wrong.
constexpr double kCityTruthToleranceM = 1.0;

/// Speed probes run before each set-up repetition and after the last.
constexpr int kSetupProbes = 50;

void probe_into(std::vector<double>& out, int n) {
  for (int i = 0; i < n; ++i) out.push_back(probe_us());
}

/// Runs `make` kSetupRepeats times, recording each wall time and, where the
/// workload uses the speed probe, the probes around them; returns the last
/// set-up.
template <typename Make>
auto repeat_setup(WorkloadResult& r, Make make) {
  const int probes = r.speed_probe ? kSetupProbes : 0;
  decltype(make()) last{};
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    last = decltype(make()){};  // free the previous set-up first
    probe_into(r.setup_probe_us, probes);
    const double t0 = now_us();
    last = make();
    r.setup_s.push_back((now_us() - t0) * 1e-6);
  }
  probe_into(r.setup_probe_us, probes);
  return last;
}

std::size_t op_count(const Options& opt, double nominal_s) {
  return static_cast<std::size_t>(std::max(1.0, opt.seconds / nominal_s));
}

void add_layer(WorkloadResult& r, const char* name, double value,
               const char* unit) {
  r.layer.push_back(Metric{name, value, unit});
}

/// Adds `numerator / denominator` of two registry counter deltas; skipped
/// (absent) when the registry is compiled out.
void add_counter_ratio(WorkloadResult& r, const char* name,
                       const std::string& numerator, double denominator,
                       const char* unit) {
  if (const auto n = r.counters.get(numerator)) {
    add_layer(r, name,
              denominator > 0 ? static_cast<double>(*n) / denominator : 0.0,
              unit);
  }
}

void add_counter_ratio(WorkloadResult& r, const char* name,
                       const std::string& numerator,
                       const std::string& denominator, const char* unit) {
  if (const auto d = r.counters.get(denominator)) {
    add_counter_ratio(r, name, numerator, static_cast<double>(*d), unit);
  }
}

/// SYN-search and SynCache work per estimate attempt, from the registry.
void add_search_counters(WorkloadResult& r, double attempts, bool syncache) {
  add_counter_ratio(r, "core.syn.windows_scanned_per_estimate",
                    "syn.windows_scanned", attempts, "count");
  add_counter_ratio(r, "core.syn.kernel_blocks_per_estimate",
                    "syn.kernel_blocks", attempts, "count");
  if (syncache) {
    add_counter_ratio(r, "core.syncache.track_hit_ratio",
                      "syncache.tracking_hits", "syncache.queries", "ratio");
    add_counter_ratio(r, "core.syncache.full_searches_per_estimate",
                      "syncache.full_searches", attempts, "count");
  }
}

double p50(const std::vector<double>& xs) {
  return rups::util::percentile(xs, 0.50);
}
double p99(const std::vector<double>& xs) {
  return rups::util::percentile(xs, 0.99);
}

double per(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

bool same_context(const ContextTrajectory& a, const ContextTrajectory& b) {
  if (a.first_metre() != b.first_metre() || a.size() != b.size() ||
      a.channels() != b.channels()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.geo(i).heading_rad != b.geo(i).heading_rad ||
        a.geo(i).time_s != b.geo(i).time_s) {
      return false;
    }
    for (std::size_t c = 0; c < a.channels(); ++c) {
      if (a.power(i).state(c) != b.power(i).state(c) ||
          a.power(i).at(c) != b.power(i).at(c)) {
        return false;
      }
    }
  }
  return true;
}

std::uint64_t end_metre(const ContextTrajectory& t) {
  return t.empty() ? 0 : t.first_metre() + t.size();
}

// ---------------------------------------------------------------------------
// convoy_round: the paper's round mode on the physics pipeline.

/// Engine-facing sensor events of one rig, in the order the live rig handed
/// them to its engine (OBD, IMU, then the tick's RSSI dwells). Replaying in
/// this order, rather than re-merging by timestamp, keeps odometer binding
/// identical to the live drive.
class EventLog final : public rups::sim::TraceSink {
 public:
  enum class Kind : std::uint8_t { kImu, kObd, kRssi };

  /// While set, events go straight to this engine instead of into the log:
  /// the warm-up needs no replay, and keeping only the timed phase's events
  /// keeps peak RSS independent of how long the seed's warm-up runs.
  void forward_to(rups::core::RupsEngine* engine) noexcept {
    forward_ = engine;
  }

  void on_imu(const rups::sensors::ImuSample& s) override {
    if (forward_ != nullptr) {
      forward_->on_imu(s);
      return;
    }
    imu_.push_back(s);
    order_.push_back(Kind::kImu);
  }
  void on_obd(const rups::sensors::SpeedSample& s) override {
    if (forward_ != nullptr) {
      forward_->on_speed(s);
      return;
    }
    obd_.push_back(s);
    order_.push_back(Kind::kObd);
  }
  void on_rssi(const rups::sensors::RssiMeasurement& s) override {
    if (forward_ != nullptr) {
      forward_->on_rssi(s);
      return;
    }
    rssi_.push_back(s);
    order_.push_back(Kind::kRssi);
  }
  void on_gps(const rups::sensors::GpsFix&) override {}  // not engine-facing

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }

  /// Reserving the whole timed drive up front keeps peak RSS to the pages
  /// the drive actually fills; vector doubling would make it jump by seed.
  void reserve(double duration_s, double tick_s) {
    const auto ticks = static_cast<std::size_t>(duration_s / tick_s) + 16;
    imu_.reserve(ticks);
    obd_.reserve(ticks);
    rssi_.reserve(4 * ticks);  // at most one dwell per radio per tick
    order_.reserve(6 * ticks);
  }

  /// Feeds events [cursor, end) to `engine`, advancing the cursor.
  struct Cursor {
    std::size_t event = 0, imu = 0, obd = 0, rssi = 0;
  };
  void replay(Cursor& c, std::size_t end,
              rups::core::RupsEngine& engine) const {
    for (; c.event < end; ++c.event) {
      switch (order_[c.event]) {
        case Kind::kImu:
          engine.on_imu(imu_[c.imu++]);
          break;
        case Kind::kObd:
          engine.on_speed(obd_[c.obd++]);
          break;
        case Kind::kRssi:
          engine.on_rssi(rssi_[c.rssi++]);
          break;
      }
    }
  }

 private:
  rups::core::RupsEngine* forward_ = nullptr;
  std::vector<Kind> order_;
  std::vector<rups::sensors::ImuSample> imu_;
  std::vector<rups::sensors::SpeedSample> obd_;
  std::vector<rups::sensors::RssiMeasurement> rssi_;
};

/// Warm-up runs in steps until both engines are calibrated and hold a full
/// 1000 m context, so no query meets a half-built context; how long that
/// takes depends on the seed's traffic.
constexpr double kConvoyWarmupStepS = 10.0;
constexpr double kConvoyMaxWarmupS = 900.0;
constexpr double kConvoyIntervalS = 1.0;

/// Figs 10-12 configuration (Sec. VI-B): two cars 40 m apart on a 4-lane
/// urban road, 4 front radios and 115 channels each, 1000 m context, 85 m x
/// top-45 window, threshold 1.2, 5 SYN points, selective mean.
rups::sim::Scenario convoy_scenario(std::uint64_t seed, std::size_t queries) {
  auto s = rups::sim::Scenario::two_car(
      seed, rups::road::EnvironmentType::kFourLaneUrban, /*gap_m=*/40.0);
  s.rups.syn.window_m = 85;
  s.rups.syn.top_channels = 45;
  s.rups.syn.coherency_threshold = 1.2;
  s.rups.syn.syn_points = 5;
  s.rups.aggregation = rups::core::Aggregation::kSelectiveMean;
  // Room for the whole drive at well above urban cruise speed.
  s.route_length_m =
      2000.0 + 20.0 * (kConvoyMaxWarmupS + kConvoyIntervalS *
                                               static_cast<double>(queries));
  return s;
}

/// One recorded drive plus engines fed the warm-up, ready for the first
/// query.
struct ConvoySetup {
  std::unique_ptr<rups::sim::ConvoySimulation> live;
  std::array<EventLog, 2> logs;  // 0 = front, 1 = rear
  double warmup_s = 0.0;
  /// Per query q (and the warm-up end at index 0): events recorded per rig.
  std::vector<std::array<std::size_t, 2>> boundary;
  /// Per query: rear - front true position (m) and live context end metres.
  std::vector<double> truth;
  std::vector<std::array<std::uint64_t, 2>> live_end;
  std::unique_ptr<rups::core::RupsEngine> front, rear;
  std::array<EventLog::Cursor, 2> cursor{};
};

std::unique_ptr<ConvoySetup> record_convoy(std::uint64_t seed,
                                           std::size_t queries) {
  auto s = std::make_unique<ConvoySetup>();
  s->live = std::make_unique<rups::sim::ConvoySimulation>(
      convoy_scenario(seed, queries));
  rups::sim::ConvoySimulation& sim = *s->live;
  s->front =
      std::make_unique<rups::core::RupsEngine>(sim.rig(0).engine().config());
  s->rear =
      std::make_unique<rups::core::RupsEngine>(sim.rig(1).engine().config());
  const std::array<rups::core::RupsEngine*, 2> engines{s->front.get(),
                                                       s->rear.get()};
  for (std::size_t i = 0; i < 2; ++i) {
    s->logs[i].reserve(kConvoyIntervalS * static_cast<double>(queries),
                       sim.scenario().tick_s);
    s->logs[i].forward_to(engines[i]);
    sim.mutable_rig(i).set_trace_sink(&s->logs[i]);
  }
  auto full = [&](std::size_t i) {
    const auto& context = sim.rig(i).engine().context();
    return context.size() == context.capacity_m();
  };
  while (!full(0) || !full(1)) {
    s->warmup_s += kConvoyWarmupStepS;
    if (s->warmup_s > kConvoyMaxWarmupS) {
      throw std::runtime_error("convoy warm-up did not fill both contexts");
    }
    sim.run_until(s->warmup_s);
  }

  auto mark = [&] {
    s->boundary.push_back({s->logs[0].size(), s->logs[1].size()});
    s->live_end.push_back({end_metre(sim.rig(0).engine().context()),
                           end_metre(sim.rig(1).engine().context())});
    s->truth.push_back(sim.rig(1).state().position_m -
                       sim.rig(0).state().position_m);
  };
  for (std::size_t i = 0; i < 2; ++i) s->logs[i].forward_to(nullptr);
  mark();
  for (std::size_t q = 0; q < queries; ++q) {
    sim.run_until(s->warmup_s + kConvoyIntervalS * static_cast<double>(q + 1));
    if (sim.finished()) throw std::runtime_error("convoy route too short");
    mark();
  }
  for (std::size_t i = 0; i < 2; ++i) {
    sim.mutable_rig(i).set_trace_sink(nullptr);
  }
  return s;
}

}  // namespace

WorkloadResult run_convoy_round(const Options& opt, Tracer& tracer) {
  WorkloadResult r;
  const std::size_t queries = op_count(opt, kConvoyQueryS);

  const std::unique_ptr<ConvoySetup> setup =
      repeat_setup(r, [&] { return record_convoy(opt.seed, queries); });
  ConvoySetup& s = *setup;
  rups::core::RupsEngine& front = *s.front;
  rups::core::RupsEngine& rear = *s.rear;
  const rups::core::RupsConfig& cfg = front.config();

  rups::v2v::DsrcLink link(opt.seed ^ 0xB0B5CAFEULL);
  rups::v2v::FaultyChannel channel(opt.seed ^ 0xC4A77E1ULL,
                                   rups::v2v::FaultConfig::urban());
  rups::v2v::ExchangeSession session(&link, &channel);
  rups::v2v::V2vReceiver receiver(cfg.channels, cfg.context_capacity_m);

  std::vector<double> estimate_us, exchange_us, receiver_us;
  double ingest_us = 0.0, ingest_metres = 0.0;
  std::uint64_t exchanges = 0, failed_exchanges = 0, estimates = 0;
  double last_estimate_s = s.warmup_s;

  r.counters.begin();
  for (std::size_t q = 0; q < queries; ++q) {
    const bool traced = tracer.begin_op();
    const double sim_t =
        s.warmup_s + kConvoyIntervalS * static_cast<double>(q + 1);
    const std::uint64_t ends_before =
        end_metre(front.context()) + end_metre(rear.context());

    const double t0 = now_us();
    ScopedSpan op(tracer, "convoy.query");
    {
      ScopedSpan span(tracer, "core.ingest");
      s.logs[0].replay(s.cursor[0], s.boundary[q + 1][0], front);
      s.logs[1].replay(s.cursor[1], s.boundary[q + 1][1], rear);
      const double d = span.end();
      if (traced) {
        ingest_us += d;
        ingest_metres += static_cast<double>(
            end_metre(front.context()) + end_metre(rear.context()) -
            ends_before);
      }
    }
    const double t1 = now_us();
    ScopedSpan fresh(tracer, "convoy.fresh");
    const bool full = !receiver.have_full;
    ScopedSpan ex_span(tracer, "v2v.exchange");
    const rups::v2v::ExchangeResult ex =
        full ? session.exchange_full(front.context())
             : session.exchange_tail(front.context(), receiver.synced_metre);
    const double ex_d = ex_span.end();
    ScopedSpan rx_span(tracer, "v2v.receiver");
    (void)receiver.ingest(ex, full);
    const double rx_d = rx_span.end();
    std::optional<rups::core::RelativeDistanceEstimate> estimate;
    if (!receiver.received.empty()) {
      ScopedSpan est_span(tracer, "core.estimate");
      estimate = rear.estimate_distance(receiver.received);
      const double est_d = est_span.end();
      if (traced) estimate_us.push_back(est_d);
    }
    fresh.end();
    op.end();
    const double t2 = now_us();

    if (traced) {
      exchange_us.push_back(ex_d);
      receiver_us.push_back(rx_d);
    }

    ++exchanges;
    const bool exchange_failed = !ex.usable();
    if (exchange_failed) ++failed_exchanges;
    const bool finite = estimate && std::isfinite(estimate->distance_m);
    if (estimate && !finite) ++r.wrong;
    const bool hit = finite && !exchange_failed;
    r.ops.push_back({t2 - t1, t2 - t0, 1, hit ? 0U : 1U, traced});
    r.ops.back().probe_us = probe_us();
    r.estimates_digest.add(estimate ? 1 : 0);
    if (estimate) r.estimates_digest.add_double(estimate->distance_m);
    if (hit) {
      ++estimates;
      r.errors_m.push_back(std::abs(estimate->distance_m - s.truth[q + 1]));
      last_estimate_s = sim_t;
    }
    r.staleness_s.push_back(sim_t - last_estimate_s);

    if (end_metre(front.context()) != s.live_end[q + 1][0] ||
        end_metre(rear.context()) != s.live_end[q + 1][1]) {
      r.failures.push_back(
          "replayed context end differs from the live rig at query " +
          std::to_string(q));
      break;
    }
  }
  r.counters.end();

  // Record/replay fidelity: the replayed contexts must equal the live rigs'
  // contexts metre for metre.
  if (!same_context(front.context(), s.live->rig(0).engine().context()) ||
      !same_context(rear.context(), s.live->rig(1).engine().context())) {
    r.failures.push_back("replayed context differs from the live rig");
  }

  r.bytes_per_estimate = per(static_cast<double>(session.total_bytes()),
                             static_cast<double>(estimates));
  const double attempts = static_cast<double>(queries);
  add_layer(r, "core.estimate.p50_us", p50(estimate_us), "us");
  add_layer(r, "core.estimate.p99_us", p99(estimate_us), "us");
  add_search_counters(r, attempts, /*syncache=*/false);
  add_layer(r, "core.ingest.us_per_metre", per(ingest_us, ingest_metres), "us");
  add_layer(r, "v2v.exchange.p50_us", p50(exchange_us), "us");
  add_layer(r, "v2v.exchange.p99_us", p99(exchange_us), "us");
  add_layer(r, "v2v.receiver.p50_us", p50(receiver_us), "us");
  add_layer(r, "v2v.bytes_per_exchange",
            per(static_cast<double>(session.total_bytes()),
                static_cast<double>(exchanges)),
            "B");
  add_layer(r, "v2v.failed_share",
            per(static_cast<double>(failed_exchanges),
                static_cast<double>(exchanges)),
            "ratio");
  add_counter_ratio(r, "v2v.transmissions_per_packet", "v2v.transmissions",
                    "v2v.packets", "count");
  r.notes.push_back("warm-up " + std::to_string(s.warmup_s) +
                    " sim-s, queries " + std::to_string(queries) +
                    ", exchanges " +
                    std::to_string(exchanges) + " (failed " +
                    std::to_string(failed_exchanges) + ")");
  return r;
}

// ---------------------------------------------------------------------------
// city_service and stream_urban: CityFleet drives at one equal speed, so the
// geometry (and with it latency and miss rate) does not drift with run
// length.

namespace {

constexpr std::size_t kCityAdvanceM = 11;

rups::sim::CityFleetConfig city_config(std::uint64_t seed, std::size_t vehicles,
                                       double spacing_m) {
  rups::sim::CityFleetConfig c;
  c.vehicles = vehicles;
  c.channels = 45;
  c.context_capacity_m = 240;
  c.spacing_m = spacing_m;
  c.min_advance_m = kCityAdvanceM;
  c.max_advance_m = kCityAdvanceM;
  c.seed = seed;
  return c;
}

/// Times one CityFleet::advance_round (outside the timed window).
double generate(rups::sim::CityFleet& city, Tracer& tracer) {
  ScopedSpan span(tracer, "sim.gen");
  city.advance_round();
  return span.end();
}

/// 64 vehicles 30 m apart: the ~1.9 km column spans 8 cells of 250 m.
constexpr std::size_t kCityVehicles = 64;
constexpr double kCitySpacingM = 30.0;
constexpr std::size_t kCityFeedRounds = 24;     // fills the 240 m contexts
constexpr std::size_t kCityRequestWarmup = 6;   // locks every SynCache

struct CitySetup {
  std::unique_ptr<rups::sim::CityFleet> city;
  std::unique_ptr<rups::service::MatcherService> svc;
};

rups::service::ServiceConfig service_config(
    const rups::sim::CityFleetConfig& city) {
  rups::service::ServiceConfig sc;
  sc.fleet.rups.channels = city.channels;
  sc.fleet.rups.context_capacity_m = city.context_capacity_m;
  sc.shard_count = 4;
  sc.cell_m = 250.0;
  return sc;
}

void observe_round(rups::service::MatcherService& svc,
                   const rups::sim::CityFleet& city) {
  for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
    for (const auto& s : city.samples(v)) {
      (void)svc.observe(city.vehicle_id(v), s.position_m, s.geo, s.power);
    }
  }
}

void submit_round(rups::service::MatcherService& svc,
                  const rups::sim::CityFleet& city,
                  std::vector<rups::service::MatcherService::Ticket>& tickets) {
  tickets.clear();
  for (const auto& q : city.queries()) {
    tickets.push_back(
        svc.submit(city.vehicle_id(q.ego), city.vehicle_id(q.neighbour)));
  }
}

CitySetup setup_city(std::uint64_t seed) {
  CitySetup s;
  const auto cc = city_config(seed, kCityVehicles, kCitySpacingM);
  s.city = std::make_unique<rups::sim::CityFleet>(cc);
  s.svc = std::make_unique<rups::service::MatcherService>(service_config(cc));
  rups::sim::CityFleet& city = *s.city;
  for (std::size_t v = 0; v < city.vehicle_count(); ++v) {
    if (!s.svc->register_vehicle(city.vehicle_id(v), city.position(v))) {
      throw std::runtime_error("city_service: registration rejected");
    }
  }
  std::vector<rups::service::MatcherService::Ticket> tickets;
  for (std::size_t round = 0; round < kCityFeedRounds + kCityRequestWarmup;
       ++round) {
    city.advance_round();
    s.svc->begin_round();
    observe_round(*s.svc, city);
    if (round < kCityFeedRounds) continue;
    submit_round(*s.svc, city, tickets);
    s.svc->drain();
  }
  return s;
}

}  // namespace

WorkloadResult run_city_service(const Options& opt, Tracer& tracer) {
  WorkloadResult r;
  r.check_halves = true;
  // Bound by memory rather than by the core: over ten runs the probe read
  // 20.7-28.5 us while a round's wall time stayed within 9.0-11.0 ms, so
  // scaling by it would add the probe's swings instead of removing the
  // host's.
  r.speed_probe = false;
  const std::size_t rounds = op_count(opt, kCityRoundS);

  CitySetup setup = repeat_setup(r, [&] { return setup_city(opt.seed); });
  rups::sim::CityFleet& city = *setup.city;
  rups::service::MatcherService& svc = *setup.svc;

  std::vector<rups::service::MatcherService::Ticket> tickets;
  tickets.reserve(city.queries().size());
  double gen_us = 0.0, gen_rounds = 0.0;
  double observe_us = 0.0, submit_us = 0.0, drain_us = 0.0;
  double traced_metres = 0.0, traced_requests = 0.0;
  std::uint64_t submits = 0, rejected = 0;
  const double metres_per_round =
      static_cast<double>(kCityAdvanceM * city.vehicle_count());

  r.counters.begin();
  for (std::size_t round = 0; round < rounds; ++round) {
    const bool traced = tracer.begin_op();
    const double g = generate(city, tracer);
    if (traced) {
      gen_us += g;
      ++gen_rounds;
    }

    const double t0 = now_us();
    {
      ScopedSpan op(tracer, "service.round");
      {
        ScopedSpan span(tracer, "service.begin_round");
        svc.begin_round();
      }
      ScopedSpan obs_span(tracer, "service.observe");
      observe_round(svc, city);
      const double o = obs_span.end();
      ScopedSpan sub_span(tracer, "service.submit");
      submit_round(svc, city, tickets);
      const double sb = sub_span.end();
      ScopedSpan drain_span(tracer, "service.drain");
      svc.drain();
      const double dr = drain_span.end();
      if (traced) {
        observe_us += o;
        submit_us += sb;
        drain_us += dr;
        traced_metres += metres_per_round;
        traced_requests += static_cast<double>(tickets.size());
      }
    }
    const double t1 = now_us();

    std::uint32_t missed = 0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const auto& ticket = tickets[i];
      ++submits;
      r.estimates_digest.add(static_cast<std::uint64_t>(ticket.admission));
      if (!ticket.accepted()) {
        ++rejected;
        ++missed;
        continue;
      }
      const auto& estimate = svc.result(ticket).estimate;
      r.estimates_digest.add(estimate ? 1 : 0);
      if (!estimate) {
        ++missed;
        continue;
      }
      r.estimates_digest.add_double(estimate->distance_m);
      const double truth = city.truth_m(city.queries()[i]);
      if (!std::isfinite(estimate->distance_m) ||
          std::abs(estimate->distance_m - truth) > kCityTruthToleranceM) {
        ++r.wrong;
        ++missed;
      }
    }
    r.ops.push_back({t1 - t0, t1 - t0,
                     static_cast<std::uint32_t>(tickets.size()), missed,
                     traced});
  }
  r.counters.end();

  const double attempts = static_cast<double>(submits);
  add_search_counters(r, attempts, /*syncache=*/true);
  add_layer(r, "service.observe.us_per_metre", per(observe_us, traced_metres),
            "us");
  add_layer(r, "service.submit.us_per_request",
            per(submit_us, traced_requests), "us");
  add_layer(r, "service.drain.us_per_request", per(drain_us, traced_requests),
            "us");
  add_layer(r, "service.rejected_share",
            per(static_cast<double>(rejected), attempts), "ratio");
  add_layer(r, "sim.gen.us_per_round", per(gen_us, gen_rounds), "us");
  add_layer(r, "sim.gen.us_per_metre",
            per(gen_us, gen_rounds * metres_per_round), "us");
  r.notes.push_back("rounds " + std::to_string(rounds) + " x " +
                    std::to_string(city.vehicle_count()) + " vehicles, " +
                    std::to_string(svc.shard_count()) + " shards");
  return r;
}

namespace {

constexpr std::size_t kStreamNeighbours = 8;
/// Close enough that every neighbour's context overlaps the ego's by more
/// than the 85 m checking window (the farthest is 120 m ahead).
constexpr double kStreamSpacingM = 15.0;
constexpr std::size_t kStreamWarmupRounds = 30;
/// A speed probe costs a few percent of an update; one every fourth update
/// keeps the probe window (main.cpp) within a few milliseconds.
constexpr std::uint64_t kStreamProbeEvery = 4;

struct StreamSetup {
  std::unique_ptr<rups::sim::CityFleet> city;
  std::unique_ptr<rups::v2v::DsrcLink> link;
  std::vector<std::unique_ptr<rups::v2v::FaultyChannel>> channels;
  std::unique_ptr<rups::stream::StreamingEngine> engine;
  /// Vehicle-owned live contexts: 0 = ego, 1..k = beacon senders.
  std::vector<ContextTrajectory> trajs;
  std::vector<const ContextTrajectory*> senders;
  /// Evicted power vectors, recycled into the next append.
  std::vector<rups::core::PowerVector> spare;
  std::vector<double> position;
};

/// Appends metre `step` of this round to every vehicle's context.
void append_metre(StreamSetup& s, std::size_t step) {
  for (std::size_t i = 0; i < s.trajs.size(); ++i) {
    const auto& sample = s.city->samples(i)[step];
    rups::core::PowerVector power = std::move(s.spare[i]);
    power = sample.power;
    s.spare[i] = s.trajs[i].append_evict(sample.geo, std::move(power));
    s.position[i] = sample.position_m;
  }
}

const rups::stream::StreamingEngine::Update& stream_update(StreamSetup& s) {
  return s.engine->update(
      s.trajs[0], std::span<const ContextTrajectory* const>(s.senders.data(),
                                                            s.senders.size()));
}

std::unique_ptr<StreamSetup> setup_stream(std::uint64_t seed) {
  auto s = std::make_unique<StreamSetup>();
  const auto cc = city_config(seed, kStreamNeighbours + 1, kStreamSpacingM);
  s->city = std::make_unique<rups::sim::CityFleet>(cc);
  rups::stream::StreamConfig config;
  config.fleet.rups.channels = cc.channels;
  config.fleet.rups.context_capacity_m = cc.context_capacity_m;
  s->engine = std::make_unique<rups::stream::StreamingEngine>(config);
  s->link = std::make_unique<rups::v2v::DsrcLink>(seed ^ 0xB0B5CAFEULL);
  for (std::size_t i = 1; i <= kStreamNeighbours; ++i) {
    s->channels.push_back(std::make_unique<rups::v2v::FaultyChannel>(
        (seed ^ 0xC4A77E1ULL) + i, rups::v2v::FaultConfig::urban()));
    s->engine->add_neighbour(s->city->vehicle_id(i), s->link.get(),
                             s->channels.back().get());
  }
  for (std::size_t i = 0; i <= kStreamNeighbours; ++i) {
    s->trajs.emplace_back(cc.channels, cc.context_capacity_m);
  }
  for (std::size_t i = 1; i <= kStreamNeighbours; ++i) {
    s->senders.push_back(&s->trajs[i]);
  }
  s->spare.resize(s->trajs.size());
  s->position.assign(s->trajs.size(), 0.0);
  for (std::size_t round = 0; round < kStreamWarmupRounds; ++round) {
    s->city->advance_round();
    for (std::size_t step = 0; step < kCityAdvanceM; ++step) {
      append_metre(*s, step);
      (void)stream_update(*s);
    }
  }
  return s;
}

rups::stream::BeaconStats beacon_totals(const StreamSetup& s) {
  rups::stream::BeaconStats t;
  for (std::size_t i = 1; i <= kStreamNeighbours; ++i) {
    const auto* b = s.engine->beacon_stats(s.city->vehicle_id(i));
    t.beacons += b->beacons;
    t.no_news += b->no_news;
    t.rerequests += b->rerequests;
    t.resyncs += b->resyncs;
  }
  return t;
}

}  // namespace

WorkloadResult run_stream_urban(const Options& opt, Tracer& tracer) {
  WorkloadResult r;
  r.check_halves = true;
  const std::size_t rounds =
      std::max<std::size_t>(1, op_count(opt, kStreamMetreS) / kCityAdvanceM);

  const std::unique_ptr<StreamSetup> setup =
      repeat_setup(r, [&] { return setup_stream(opt.seed); });
  StreamSetup& s = *setup;
  rups::stream::StreamingEngine& engine = *s.engine;
  const std::uint64_t first_id = s.city->vehicle_id(0);

  const rups::stream::BeaconStats beacons_before = beacon_totals(s);
  const std::size_t bytes_before = engine.total_beacon_bytes();
  std::vector<double> last_estimate_s(kStreamNeighbours + 1, 0.0);
  std::vector<bool> fresh(kStreamNeighbours + 1, false);
  double gen_us = 0.0, gen_rounds = 0.0, append_us = 0.0, appended = 0.0;
  std::uint64_t updates = 0;

  r.counters.begin();
  for (std::size_t round = 0; round < rounds; ++round) {
    // The generator runs once per round; its span belongs to the round's
    // first metre.
    bool traced = tracer.begin_op();
    const double g = generate(*s.city, tracer);
    if (traced) {
      gen_us += g;
      ++gen_rounds;
    }
    for (std::size_t step = 0; step < kCityAdvanceM; ++step) {
      if (step > 0) traced = tracer.begin_op();
      const double t0 = now_us();
      ScopedSpan op(tracer, "stream.metre");
      ScopedSpan append_span(tracer, "core.context.append");
      append_metre(s, step);
      const double a = append_span.end();
      const double t1 = now_us();
      ScopedSpan update_span(tracer, "stream.update");
      const auto& update = stream_update(s);
      update_span.end();
      op.end();
      const double t2 = now_us();
      ++updates;
      if (traced) {
        append_us += a;
        appended += static_cast<double>(s.trajs.size());
      }

      const double now_s = s.trajs[0].geo(s.trajs[0].size() - 1).time_s;
      std::fill(fresh.begin(), fresh.end(), false);
      std::uint32_t missed = 0;
      for (std::size_t j = 0; j < update.ids.size(); ++j) {
        const std::size_t i = update.ids[j] - first_id;
        const auto& estimate = update.results[j].estimate;
        r.estimates_digest.add(update.ids[j]);
        r.estimates_digest.add(estimate ? 1 : 0);
        if (!estimate) continue;
        r.estimates_digest.add_double(estimate->distance_m);
        last_estimate_s[i] = now_s;
        const double truth = s.position[0] - s.position[i];
        if (!std::isfinite(estimate->distance_m) ||
            std::abs(estimate->distance_m - truth) > kCityTruthToleranceM) {
          ++r.wrong;
          continue;
        }
        fresh[i] = true;
      }
      for (std::size_t i = 1; i <= kStreamNeighbours; ++i) {
        if (!fresh[i]) ++missed;
        r.staleness_s.push_back(now_s - last_estimate_s[i]);
      }
      r.ops.push_back({t2 - t1, t2 - t0, kStreamNeighbours, missed, traced});
      if (updates % kStreamProbeEvery == 0) r.ops.back().probe_us = probe_us();
    }
  }
  r.counters.end();

  const rups::stream::BeaconStats beacons_after = beacon_totals(s);
  const double beacons =
      static_cast<double>(beacons_after.beacons - beacons_before.beacons);
  // Wire bytes and estimates over the engine's whole life, initial syncs
  // in set-up included.
  r.bytes_per_estimate =
      per(static_cast<double>(engine.total_beacon_bytes()),
          static_cast<double>(engine.estimates()));
  const double attempts = static_cast<double>(updates * kStreamNeighbours);
  add_search_counters(r, attempts, /*syncache=*/true);
  add_layer(r, "core.context.append_us_per_metre", per(append_us, appended),
            "us");
  add_counter_ratio(r, "v2v.transmissions_per_packet", "v2v.transmissions",
                    "v2v.packets", "count");
  add_layer(r, "stream.beacon.bytes_per_update",
            per(static_cast<double>(engine.total_beacon_bytes() - bytes_before),
                static_cast<double>(updates)),
            "B");
  add_layer(r, "stream.beacon.no_news_share",
            per(static_cast<double>(beacons_after.no_news -
                                    beacons_before.no_news),
                beacons),
            "ratio");
  add_layer(r, "stream.beacon.rerequests",
            static_cast<double>(beacons_after.rerequests -
                                beacons_before.rerequests),
            "count");
  add_layer(r, "stream.beacon.resyncs",
            static_cast<double>(beacons_after.resyncs - beacons_before.resyncs),
            "count");
  add_layer(r, "sim.gen.us_per_round", per(gen_us, gen_rounds), "us");
  add_layer(r, "sim.gen.us_per_metre",
            per(gen_us, gen_rounds * static_cast<double>(kCityAdvanceM *
                                                         s.trajs.size())),
            "us");
  r.notes.push_back("metres " + std::to_string(updates) + " x " +
                    std::to_string(kStreamNeighbours) + " beacon neighbours");
  return r;
}

}  // namespace rupsbench
