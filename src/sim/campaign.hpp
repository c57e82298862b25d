#pragma once

// The campaign driver: the paper's evaluation recipe (Secs. VI-B/C/D) —
// drive, warm up, then exchange context and estimate at a fixed cadence —
// for one ego vehicle querying every other vehicle of a drive.
//
// Drive sources:
//   * convoy — the physical ConvoySimulation rigs (GSM field, scanners,
//     dead reckoning, binder). The ego is the last (rearmost) vehicle; one
//     tick per round.
//   * city — a CityFleet replayed as a live per-metre feed. The ego is
//     vehicle 0; each round's metres land one tick at a time.
// Transports (how a neighbour's context reaches the ego):
//   * kIdeal  — the sender's pristine in-memory context, once per round;
//   * kRound  — an ExchangeSession full transfer, then tails from the
//               receiver watermark (Sec. V-B), once per round; the ego
//               estimates from the DECODED receiver-side copy, so codec
//               quantization and channel damage reach SynSeeker;
//   * kBeacon — a StreamingEngine beacon-diff round every tick (DESIGN §17).
// The paper's two-car campaign is the convoy source with one neighbour,
// the round (or ideal) transport and the tracking cache off.

#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/fleet.hpp"
#include "obs/health.hpp"
#include "obs/snapshot.hpp"
#include "obs/timeseries.hpp"
#include "sim/convoy_sim.hpp"
#include "sim/service_sim.hpp"
#include "stream/stream_engine.hpp"
#include "util/thread_pool.hpp"
#include "v2v/channel.hpp"
#include "v2v/exchange.hpp"
#include "v2v/link.hpp"
#include "v2v/receiver.hpp"

namespace rups::sim {

enum class Transport { kIdeal, kRound, kBeacon };

/// The fault channel of neighbour vehicle i is seeded kFaultSeed + i.
inline constexpr std::uint64_t kFaultSeed = 0xC4A77E1ULL;

struct CampaignConfig {
  /// Drive time (sim-s) before the first round; nothing is exchanged or
  /// estimated during it (sensor calibration, context build-up).
  double warmup_s = 350.0;
  /// Sim-seconds per round (a city drive's round length).
  double interval_s = 3.0;
  /// Round budget; a convoy run also ends when a vehicle finishes its
  /// route.
  std::size_t rounds = 500;
  Transport transport = Transport::kRound;
  /// Packet-fault profile of every neighbour channel.
  v2v::FaultConfig fault{};
  /// Seed of the DSRC link all neighbours share. It fixes clean-channel
  /// transfer timing, so it stays per workload.
  std::uint64_t link_seed = 0xB0B5'CAFEULL;
  /// Ego engine policy: SynCache (fleet.cache), exchange retry/deadline
  /// (beacon.exchange, also used by the round transport) and the beacon
  /// diff protocol. A convoy drive replaces fleet.rups with the ego rig's
  /// engine config; a city drive sets its channels and capacity.
  stream::StreamConfig engine{};
  /// Health/SLO rules fed with every exchange and every estimate; alerts
  /// fire flight-recorder anomalies.
  obs::HealthConfig health{};
  /// When non-empty, run() points the flight recorder's diagnostics
  /// bundles here (the previous setting is restored afterwards).
  std::filesystem::path diagnostics_dir{};
  /// Sim-time windowed series collected by run(), observed every tick.
  obs::TimeSeriesConfig series{};
};

/// One ego-vs-neighbour estimate, with ground truth attached.
struct CampaignOutcome {
  double time_s = 0.0;
  /// Vehicle index of the queried neighbour.
  std::size_t neighbour = 0;
  core::FleetEngine::NeighbourResult result;
  /// Signed ground truth (positive = ego in front of the neighbour).
  double truth_m = 0.0;
  /// Convoy drives only: mean absolute SYN position error (m) over the
  /// found SYN points (NaN if none), and the GPS baseline estimate.
  double syn_error_m = std::numeric_limits<double>::quiet_NaN();
  std::optional<double> gps;

  [[nodiscard]] std::optional<double> rups_error() const;
  [[nodiscard]] std::optional<double> gps_error() const;
};

struct CampaignResult {
  /// Every outcome in time order, neighbours in index order within a tick.
  std::vector<CampaignOutcome> outcomes;
  /// Rounds completed.
  std::size_t rounds = 0;
  /// Sim time of every tick (one per round on a convoy, one per metre on a
  /// city drive).
  std::vector<double> ticks;
  /// Vehicle indices of the ego's neighbours.
  std::vector<std::size_t> neighbours;
  /// Wire bytes over the whole run (full+tail exchanges or beacons).
  std::size_t v2v_bytes = 0;
  core::SynCache::Stats cache;
  /// Beacon protocol accounting summed across neighbours (kBeacon only).
  stream::BeaconStats beacons;
  /// Registry snapshot at the end of the run: fleetcampaign.* cadence
  /// counters, syn.*, v2v.*, gsm.* work. Counters are process-cumulative.
  /// Empty under RUPS_OBS_DISABLED.
  obs::MetricsSnapshot metrics;
  /// Identical in all build configurations (explicit ground-truth feeds).
  obs::HealthReport health;
  /// Windowed series with one estimate.staleness_s column per neighbour.
  obs::TimeSeriesData series;

  /// Absolute RUPS errors over outcomes with an estimate.
  [[nodiscard]] std::vector<double> rups_errors() const;
  /// Absolute GPS errors over outcomes with a GPS estimate.
  [[nodiscard]] std::vector<double> gps_errors() const;
  /// SYN position errors over outcomes that found SYN points.
  [[nodiscard]] std::vector<double> syn_errors() const;
  /// Fraction of outcomes with an estimate.
  [[nodiscard]] double availability() const;
  /// Sim-seconds since each neighbour's last estimate, sampled for every
  /// neighbour at every tick after `from_s`; the clocks start at `from_s`.
  [[nodiscard]] std::vector<double> staleness_after(double from_s) const;
};

class Campaign {
 public:
  /// Convoy source: drives the scenario's physical rigs.
  Campaign(Scenario scenario, CampaignConfig config);
  /// City source: replays a CityFleet whose round length is interval_s.
  Campaign(CityFleetConfig city, CampaignConfig config);
  ~Campaign();
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  /// Advance the drive by one tick (the first call drives the warm-up
  /// first). False when the drive ended.
  bool advance();
  /// Exchange context and estimate every neighbour at the current tick:
  /// every tick for kBeacon, at the last tick of a round otherwise. The
  /// outcomes stay valid until the next call.
  std::span<const CampaignOutcome> exchange_and_estimate(
      util::ThreadPool* pool = nullptr);
  /// Advance and exchange until `rounds` rounds completed or the drive
  /// ended, tracking staleness and the windowed series on the way.
  [[nodiscard]] CampaignResult run(util::ThreadPool* pool = nullptr);

  /// The convoy simulation (convoy source only).
  [[nodiscard]] ConvoySimulation& convoy() { return *convoy_; }
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t ego() const noexcept { return ego_; }
  [[nodiscard]] const obs::HealthMonitor& health() const noexcept {
    return health_;
  }
  [[nodiscard]] std::size_t v2v_bytes() const noexcept;
  /// Beacon protocol accounting summed across neighbours (kBeacon only).
  [[nodiscard]] stream::BeaconStats beacon_stats() const;

 private:
  struct CityDrive;

  Campaign(std::unique_ptr<ConvoySimulation> convoy,
           std::unique_ptr<CityDrive> city, const CampaignConfig& config);
  void warm_up();
  void tick();
  [[nodiscard]] const core::ContextTrajectory& context(std::size_t i) const;
  [[nodiscard]] double position(std::size_t i) const;
  void account(CampaignOutcome& outcome, const core::ContextTrajectory& view);

  CampaignConfig config_;
  std::unique_ptr<ConvoySimulation> convoy_;
  std::unique_ptr<CityDrive> city_;
  std::size_t ego_ = 0;
  std::vector<std::size_t> neighbours_;
  /// Engine / series id of each neighbour (parallel to neighbours_).
  std::vector<std::uint64_t> ids_;
  bool warmed_up_ = false;
  bool round_end_ = false;
  double now_ = 0.0;

  stream::StreamingEngine engine_;
  v2v::DsrcLink link_;
  /// Per neighbour. Channels are heap-held: sessions keep raw pointers.
  std::vector<std::unique_ptr<v2v::FaultyChannel>> channels_;
  std::vector<v2v::ExchangeSession> sessions_;
  std::vector<v2v::V2vReceiver> receivers_;
  obs::HealthMonitor health_;

  /// Per-call scratch of exchange_and_estimate.
  std::vector<CampaignOutcome> step_;
  std::vector<const core::ContextTrajectory*> views_;
  std::vector<std::uint64_t> batch_ids_;
  std::vector<std::size_t> batched_;  ///< neighbour slot of each view
};

}  // namespace rups::sim
