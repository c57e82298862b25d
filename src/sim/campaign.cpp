#include "sim/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/alloc.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"

namespace rups::sim {

namespace {

/// Cadence accounting one level above core's fleet.* batch counters:
/// rounds, per-round latency and allocations, and the availability and
/// staleness the ego observes across its neighbourhood.
struct CampaignMetrics {
  obs::Counter& rounds =
      obs::Registry::global().counter("fleetcampaign.rounds");
  obs::Counter& outcomes =
      obs::Registry::global().counter("fleetcampaign.outcomes");
  obs::Counter& hits = obs::Registry::global().counter("fleetcampaign.hits");
  obs::Counter& misses =
      obs::Registry::global().counter("fleetcampaign.misses");
  obs::Gauge& availability =
      obs::Registry::global().gauge("fleetcampaign.last_availability");
  obs::Histogram& round_us =
      obs::Registry::global().histogram("fleetcampaign.round_us");
  /// operator new calls per round on the driving thread (pool-worker
  /// allocations land in fleet.task_allocs): the round-cadence axis of the
  /// zero-alloc steady-state ratchet.
  obs::Histogram& round_allocs =
      obs::Registry::global().histogram("fleetcampaign.round_allocs");
  obs::CounterFamily& query_outcomes = obs::Registry::global().counter_family(
      "fleetcampaign.query_outcome", "outcome");
  /// Sim-seconds since the last accepted estimate, per neighbour.
  obs::GaugeFamily& staleness = obs::Registry::global().gauge_family(
      "estimate.staleness_s", "neighbour");
};

CampaignMetrics& campaign_metrics() {
  static CampaignMetrics m;
  return m;
}

/// Minimal JSON view of the campaign + health configuration, embedded in
/// diagnostics bundles so a dump is interpretable on its own.
std::string config_json(const CampaignConfig& config) {
  static constexpr const char* kTransports[] = {"ideal", "round", "beacon"};
  const v2v::FaultConfig& f = config.fault;
  const v2v::ExchangeConfig& x = config.engine.beacon.exchange;
  const obs::HealthConfig& h = config.health;
  std::string out = "{";
  out += "\"warmup_s\": " + std::to_string(config.warmup_s);
  out += ", \"interval_s\": " + std::to_string(config.interval_s);
  out += ", \"rounds\": " + std::to_string(config.rounds);
  out += ", \"transport\": \"";
  out += kTransports[static_cast<int>(config.transport)];
  out += "\", \"fault\": {";
  out += "\"loss_rate\": " + std::to_string(f.loss_rate);
  out += ", \"burst_loss\": ";
  out += f.burst_loss ? "true" : "false";
  out += ", \"loss_rate_bad\": " + std::to_string(f.loss_rate_bad);
  out += ", \"reorder_rate\": " + std::to_string(f.reorder_rate);
  out += ", \"duplicate_rate\": " + std::to_string(f.duplicate_rate);
  out += ", \"truncate_rate\": " + std::to_string(f.truncate_rate);
  out += ", \"bit_flip_rate\": " + std::to_string(f.bit_flip_rate);
  out += "}, \"exchange\": {";
  out += "\"max_rounds\": " + std::to_string(x.max_rounds);
  out += ", \"deadline_s\": " + std::to_string(x.deadline_s);
  out += "}, \"health\": {";
  out += "\"window\": " + std::to_string(h.window);
  out += ", \"min_samples\": " + std::to_string(h.min_samples);
  out += ", \"min_availability\": " + std::to_string(h.min_availability);
  out += ", \"max_error_p95_m\": " + std::to_string(h.max_error_p95_m);
  out += ", \"max_latency_p99_us\": " + std::to_string(h.max_latency_p99_us);
  out += ", \"max_miss_streak\": " + std::to_string(h.max_miss_streak);
  out += "}}";
  return out;
}

/// The engine policy with the drive's trajectory geometry applied.
CampaignConfig with_source_engine(CampaignConfig config,
                                  const ConvoySimulation* convoy,
                                  const CityFleetConfig* city) {
  core::RupsConfig& rups = config.engine.fleet.rups;
  if (convoy != nullptr) {
    rups = convoy->rig(convoy->vehicle_count() - 1).engine().config();
  } else {
    rups.channels = city->channels;
    rups.context_capacity_m = city->context_capacity_m;
  }
  return config;
}

}  // namespace

/// A CityFleet replayed metre by metre into vehicle-owned live contexts.
struct Campaign::CityDrive {
  CityFleetConfig config;
  CityFleet fleet;
  std::vector<core::ContextTrajectory> contexts;
  /// Road position of each vehicle's newest context metre.
  std::vector<double> positions;
  std::size_t rounds_started = 0;
  std::size_t metre = 0;  ///< metres of the current round already landed
  std::size_t steps = 0;  ///< metres in the current round (longest vehicle)

  explicit CityDrive(const CityFleetConfig& city)
      : config(city), fleet(city), positions(city.vehicles, 0.0) {
    // A round without metres would never end.
    if (city.min_advance_m == 0) {
      throw std::invalid_argument("Campaign: city vehicles must advance");
    }
    contexts.reserve(city.vehicles);
    for (std::size_t i = 0; i < city.vehicles; ++i) {
      contexts.emplace_back(city.channels, city.context_capacity_m);
    }
  }
};

std::optional<double> CampaignOutcome::rups_error() const {
  if (!result.estimate.has_value()) return std::nullopt;
  return std::abs(result.estimate->distance_m - truth_m);
}

std::optional<double> CampaignOutcome::gps_error() const {
  if (!gps.has_value()) return std::nullopt;
  return std::abs(*gps - truth_m);
}

std::vector<double> CampaignResult::rups_errors() const {
  std::vector<double> out;
  for (const auto& o : outcomes) {
    if (const auto e = o.rups_error()) out.push_back(*e);
  }
  return out;
}

std::vector<double> CampaignResult::gps_errors() const {
  std::vector<double> out;
  for (const auto& o : outcomes) {
    if (const auto e = o.gps_error()) out.push_back(*e);
  }
  return out;
}

std::vector<double> CampaignResult::syn_errors() const {
  std::vector<double> out;
  for (const auto& o : outcomes) {
    if (!std::isnan(o.syn_error_m)) out.push_back(o.syn_error_m);
  }
  return out;
}

double CampaignResult::availability() const {
  if (outcomes.empty()) return 0.0;
  std::size_t hits = 0;
  for (const auto& o : outcomes) {
    if (o.result.estimate.has_value()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(outcomes.size());
}

std::vector<double> CampaignResult::staleness_after(double from_s) const {
  std::vector<double> last(neighbours.size(), from_s);
  std::vector<double> out;
  std::size_t next = 0;
  for (const double t : ticks) {
    for (; next < outcomes.size() && outcomes[next].time_s <= t; ++next) {
      const CampaignOutcome& o = outcomes[next];
      if (!o.result.estimate.has_value()) continue;
      const auto k = static_cast<std::size_t>(
          std::find(neighbours.begin(), neighbours.end(), o.neighbour) -
          neighbours.begin());
      last[k] = std::max(last[k], o.time_s);
    }
    if (t <= from_s) continue;
    for (const double l : last) out.push_back(t - l);
  }
  return out;
}

Campaign::Campaign(Scenario scenario, CampaignConfig config)
    : Campaign(std::make_unique<ConvoySimulation>(std::move(scenario)),
               nullptr, config) {}

Campaign::Campaign(CityFleetConfig city, CampaignConfig config)
    : Campaign(nullptr,
               [&] {
                 city.interval_s = config.interval_s;
                 return std::make_unique<CityDrive>(city);
               }(),
               config) {}

Campaign::Campaign(std::unique_ptr<ConvoySimulation> convoy,
                   std::unique_ptr<CityDrive> city,
                   const CampaignConfig& config)
    : config_(with_source_engine(config, convoy.get(),
                                 city ? &city->config : nullptr)),
      convoy_(std::move(convoy)),
      city_(std::move(city)),
      engine_(config_.engine),
      link_(config_.link_seed),
      health_(config_.health) {
  const std::size_t vehicles =
      convoy_ ? convoy_->vehicle_count() : city_->contexts.size();
  ego_ = convoy_ ? vehicles - 1 : 0;
  for (std::size_t i = 0; i < vehicles; ++i) {
    if (i == ego_) continue;
    neighbours_.push_back(i);
    ids_.push_back(convoy_ ? i : city_->fleet.vehicle_id(i));
  }
  if (config_.transport == Transport::kIdeal) return;
  const core::RupsConfig& rups = config_.engine.fleet.rups;
  for (std::size_t k = 0; k < neighbours_.size(); ++k) {
    channels_.push_back(std::make_unique<v2v::FaultyChannel>(
        kFaultSeed + neighbours_[k], config_.fault));
    if (config_.transport == Transport::kBeacon) {
      engine_.add_neighbour(ids_[k], &link_, channels_.back().get());
    } else {
      sessions_.emplace_back(&link_, channels_.back().get(),
                             config_.engine.beacon.exchange);
      receivers_.emplace_back(rups.channels, rups.context_capacity_m);
    }
  }
}

Campaign::~Campaign() = default;

const core::ContextTrajectory& Campaign::context(std::size_t i) const {
  return convoy_ ? convoy_->rig(i).engine().context() : city_->contexts[i];
}

double Campaign::position(std::size_t i) const {
  return convoy_ ? convoy_->rig(i).state().position_m : city_->positions[i];
}

std::size_t Campaign::v2v_bytes() const noexcept {
  std::size_t total = engine_.total_beacon_bytes();
  for (const auto& s : sessions_) total += s.total_bytes();
  return total;
}

stream::BeaconStats Campaign::beacon_stats() const {
  stream::BeaconStats total;
  for (const std::uint64_t id : ids_) {
    if (const stream::BeaconStats* s = engine_.beacon_stats(id)) {
      total.beacons += s->beacons;
      total.diffs += s->diffs;
      total.no_news += s->no_news;
      total.rerequests += s->rerequests;
      total.resyncs += s->resyncs;
      total.metres_gained += s->metres_gained;
    }
  }
  return total;
}

void Campaign::tick() {
  if (convoy_) {
    now_ += config_.interval_s;
    convoy_->run_until(now_);
    round_end_ = true;
    return;
  }
  CityDrive& city = *city_;
  if (city.metre == city.steps) {
    city.fleet.advance_round();
    ++city.rounds_started;
    city.metre = 0;
    city.steps = 0;
    for (std::size_t i = 0; i < city.contexts.size(); ++i) {
      city.steps = std::max(city.steps, city.fleet.samples(i).size());
    }
  }
  for (std::size_t i = 0; i < city.contexts.size(); ++i) {
    const auto& batch = city.fleet.samples(i);
    if (city.metre < batch.size()) {
      const CityFleet::Sample& s = batch[city.metre];
      city.contexts[i].append(s.geo, s.power);
      city.positions[i] = s.position_m;
    }
  }
  ++city.metre;
  now_ = (static_cast<double>(city.rounds_started - 1) +
          static_cast<double>(city.metre) / static_cast<double>(city.steps)) *
         config_.interval_s;
  round_end_ = city.metre == city.steps;
}

void Campaign::warm_up() {
  if (warmed_up_) return;
  warmed_up_ = true;
  if (convoy_) {
    convoy_->run_until(config_.warmup_s);
    now_ = config_.warmup_s;
  } else {
    while (now_ < config_.warmup_s) tick();
  }
}

bool Campaign::advance() {
  warm_up();
  if (convoy_ && convoy_->finished()) return false;
  tick();
  return convoy_ == nullptr || !convoy_->finished();
}

void Campaign::account(CampaignOutcome& o, const core::ContextTrajectory& view) {
  CampaignMetrics& metrics = campaign_metrics();
  o.time_s = now_;
  o.truth_m = position(ego_) - position(o.neighbour);
  const bool hit = o.result.estimate.has_value();
  metrics.outcomes.inc();
  (hit ? metrics.hits : metrics.misses).inc();
  if (convoy_) {
    // Only the physical rigs know where each metre was really measured
    // (the SYN oracle) and carry GPS. The truth verdicts go to the
    // recorder here only: a city drive's per-metre beacon estimates would
    // just cycle the ring.
    o.syn_error_m =
        convoy_->syn_error_m(ego_, o.neighbour, view, o.result.syn_points);
    o.gps = convoy_->gps_estimate(ego_, o.neighbour);
    if (hit) {
      obs::FlightRecorder::global().record(
          obs::EventType::kEstimateChecked, "campaign.query",
          o.result.estimate->distance_m, o.truth_m, *o.rups_error());
    } else {
      obs::FlightRecorder::global().record(obs::EventType::kEstimateMissing,
                                           "campaign.query", o.truth_m);
    }
  }
  health_.on_query(hit, o.rups_error(), o.result.latency_us);
}

std::span<const CampaignOutcome> Campaign::exchange_and_estimate(
    util::ThreadPool* pool) {
  step_.clear();
  const bool beacon = config_.transport == Transport::kBeacon;
  if (!beacon && !round_end_) return {};
  CampaignMetrics& metrics = campaign_metrics();
  const obs::AllocTotals allocs_before = obs::thread_alloc_totals();
  obs::ObsTimer timer(&metrics.round_us, "fleetcampaign.round");
  metrics.rounds.inc();
  const core::ContextTrajectory& ego = context(ego_);

  views_.clear();
  if (beacon) {
    for (const std::size_t i : neighbours_) views_.push_back(&context(i));
    const stream::StreamingEngine::Update& update = engine_.update(
        ego, std::span<const core::ContextTrajectory* const>(views_), pool);
    for (std::size_t j = 0; j < update.ids.size(); ++j) {
      const std::size_t k = static_cast<std::size_t>(
          std::find(ids_.begin(), ids_.end(), update.ids[j]) - ids_.begin());
      CampaignOutcome& o = step_.emplace_back();
      o.neighbour = neighbours_[k];
      o.result = update.results[j];
      account(o, *engine_.view(update.ids[j]));
    }
  } else {
    // Round cadence: pull each neighbour's context (full once, then the
    // tail metres since the receiver watermark), then estimate every
    // neighbour with something decodable in one batch. A neighbour with
    // nothing to search is a miss.
    batch_ids_.clear();
    batched_.clear();
    for (std::size_t k = 0; k < neighbours_.size(); ++k) {
      const core::ContextTrajectory& sender = context(neighbours_[k]);
      const core::ContextTrajectory* view = &sender;
      if (config_.transport == Transport::kRound) {
        v2v::V2vReceiver& receiver = receivers_[k];
        if (!sender.empty()) {
          const bool full = !receiver.have_full;
          const v2v::ExchangeResult exchanged =
              full ? sessions_[k].exchange_full(sender)
                   : sessions_[k].exchange_tail(sender, receiver.synced_metre);
          (void)receiver.ingest(exchanged, full);
          health_.on_exchange(
              exchanged.usable(),
              exchanged.outcome == v2v::ExchangeOutcome::kDegraded);
        }
        view = &receiver.received;
      }
      step_.emplace_back().neighbour = neighbours_[k];
      if (view->empty()) continue;
      views_.push_back(view);
      batch_ids_.push_back(ids_[k]);
      batched_.push_back(k);
    }
    if (!views_.empty()) {
      auto results = engine_.fleet().estimate_batch(ego, views_, batch_ids_,
                                                    pool);
      for (std::size_t j = 0; j < results.size(); ++j) {
        step_[batched_[j]].result = std::move(results[j]);
      }
    }
    for (std::size_t k = 0; k < step_.size(); ++k) {
      const core::ContextTrajectory& view =
          config_.transport == Transport::kRound ? receivers_[k].received
                                                 : context(neighbours_[k]);
      account(step_[k], view);
    }
  }
  timer.stop();
  if (obs::alloc_accounting_available()) {
    metrics.round_allocs.record(static_cast<double>(
        (obs::thread_alloc_totals() - allocs_before).count));
  }
  return step_;
}

CampaignResult Campaign::run(util::ThreadPool* pool) {
  CampaignMetrics& metrics = campaign_metrics();
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  const std::filesystem::path previous_dump_dir = recorder.dump_dir();
  if (!config_.diagnostics_dir.empty()) {
    recorder.set_dump_dir(config_.diagnostics_dir);
    recorder.set_config_text(config_json(config_));
  }

  // Staleness clocks and the series start where the warm-up ends.
  warm_up();
  CampaignResult result;
  result.neighbours = neighbours_;
  std::vector<double> last_accept_s(neighbours_.size(), now_);
  obs::TimeSeriesCollector collector(config_.series);
  for (const std::uint64_t id : ids_) collector.track(id);
  collector.begin(now_);
  while (result.rounds < config_.rounds && advance()) {
    exchange_and_estimate(pool);
    for (std::size_t k = 0; k < step_.size(); ++k) {
      CampaignOutcome& o = step_[k];
      const bool hit = o.result.estimate.has_value();
      metrics.query_outcomes.with(hit ? "hit" : "miss").inc();
      if (hit) {
        const auto n = static_cast<std::size_t>(
            std::find(neighbours_.begin(), neighbours_.end(), o.neighbour) -
            neighbours_.begin());
        last_accept_s[n] = now_;
        collector.note_estimate(ids_[n], now_);
      }
      result.outcomes.push_back(std::move(o));
    }
    for (std::size_t k = 0; k < ids_.size(); ++k) {
      metrics.staleness.with(ids_[k]).set(now_ - last_accept_s[k]);
    }
    collector.observe(now_);
    result.ticks.push_back(now_);
    if (round_end_) ++result.rounds;
  }
  result.series = collector.finish(now_);

  metrics.availability.set(result.availability());
  if (!config_.diagnostics_dir.empty()) recorder.set_dump_dir(previous_dump_dir);
  result.cache = engine_.fleet().cache_stats();
  result.v2v_bytes = v2v_bytes();
  result.beacons = beacon_stats();
  result.health = health_.report();
  // Mirror the span-stage allocation census (when one is being collected)
  // into alloc.count{stage}/alloc.bytes{stage} before the snapshot.
  if (obs::alloc_census_enabled()) obs::publish_alloc_census();
  result.metrics = obs::Registry::global().snapshot();
  RUPS_LOG(kDebug) << "campaign finished: " << result.rounds << " rounds, "
                   << result.outcomes.size() << " outcomes, availability "
                   << result.availability() << ", v2v bytes "
                   << result.v2v_bytes;
  return result;
}

}  // namespace rups::sim
