#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "gsm/gsm_field.hpp"
#include "road/route.hpp"
#include "sensors/gps.hpp"
#include "sensors/gsm_scanner.hpp"
#include "sensors/imu.hpp"
#include "sensors/obd.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "util/thread_pool.hpp"
#include "vehicle/kinematics.hpp"
#include "vehicle/passing.hpp"

namespace rups::sim {

/// One instrumented vehicle: ground-truth kinematics plus the sensor suite
/// feeding its on-board RUPS engine.
class VehicleRig {
 public:
  VehicleRig(const Scenario& scenario, const VehicleSetup& setup,
             const road::Route* route,
             const vehicle::TrafficLightPlan* lights,
             const gsm::GsmField* field);

  /// Advance ground truth and all sensors by one tick. `leader` enables the
  /// car-following correction keeping the convoy within rangefinder range
  /// (the experiment cars were driven together; each still has its own
  /// driving style).
  void tick(double dt, const vehicle::VehicleState* leader = nullptr);

  [[nodiscard]] const vehicle::VehicleState& state() const noexcept {
    return kinematics_.state();
  }
  [[nodiscard]] const core::RupsEngine& engine() const noexcept {
    return engine_;
  }
  [[nodiscard]] const std::optional<sensors::GpsFix>& last_gps_fix()
      const noexcept {
    return last_fix_;
  }
  /// True route position (m) at which the engine emitted odometer metre k
  /// (NaN when unknown) — the oracle for SYN-point error measurement.
  [[nodiscard]] double true_position_of_metre(std::uint64_t metre) const;

  /// Lane the vehicle currently occupies (changes over time when the setup
  /// enables lane changing).
  [[nodiscard]] int current_lane() const noexcept { return lane_; }

  [[nodiscard]] bool finished() const noexcept {
    return kinematics_.finished();
  }

  /// Publish raw sensor streams (trace recording); nullptr disables.
  void set_trace_sink(TraceSink* sink) noexcept { sink_ = sink; }

 private:
  const road::Route* route_;
  const gsm::GsmField* field_;
  int lane_;
  double lane_change_mean_s_;
  double next_lane_change_s_ = 0.0;
  util::Rng lane_rng_;

  vehicle::SpeedController controller_;
  vehicle::Kinematics kinematics_;
  vehicle::PassingVehicleProcess passing_;
  sensors::ImuModel imu_;
  sensors::ObdSpeedSensor obd_;
  sensors::GsmScanner scanner_;
  sensors::GpsModel gps_;
  core::RupsEngine engine_;

  util::Rng blockage_rng_;
  TraceSink* sink_ = nullptr;
  std::optional<sensors::GpsFix> last_fix_;
  double prev_heading_ = 0.0;
  bool have_prev_heading_ = false;
  std::vector<double> true_pos_of_metre_;
  std::vector<sensors::RssiMeasurement> measurement_buffer_;
};

/// Drives N instrumented vehicles down one route through a shared GSM
/// field — the paper's two experiment cars, generalized. Supports the
/// evaluation queries: RUPS estimate vs GPS estimate vs ground truth, and
/// SYN-point position errors.
class ConvoySimulation {
 public:
  explicit ConvoySimulation(Scenario scenario);

  /// Advance the whole convoy to absolute time `time_s`.
  void run_until(double time_s);

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] bool finished() const;

  [[nodiscard]] std::size_t vehicle_count() const noexcept {
    return rigs_.size();
  }
  [[nodiscard]] const VehicleRig& rig(std::size_t i) const {
    return *rigs_.at(i);
  }
  [[nodiscard]] VehicleRig& mutable_rig(std::size_t i) { return *rigs_.at(i); }
  [[nodiscard]] const road::Route& route() const noexcept { return route_; }
  [[nodiscard]] const gsm::GsmField& field() const noexcept { return *field_; }
  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }

  /// Result of one relative-distance query from vehicle `rear` about
  /// vehicle `front`. Sign convention: positive = rear vehicle in front.
  struct QueryResult {
    std::optional<core::RelativeDistanceEstimate> rups;
    std::vector<core::SynPoint> syn_points;
    /// Mean absolute SYN position error (m) over found SYN points; NaN if
    /// none were found.
    double syn_error_m = 0.0;
    /// GPS-based estimate, if both vehicles have fresh fixes.
    std::optional<double> gps;
    /// Ground truth (difference of true travelled distances).
    double truth = 0.0;

    [[nodiscard]] std::optional<double> rups_error() const {
      if (!rups.has_value()) return std::nullopt;
      return std::abs(rups->distance_m - truth);
    }
    [[nodiscard]] std::optional<double> gps_error() const {
      if (!gps.has_value()) return std::nullopt;
      return std::abs(*gps - truth);
    }
  };

  /// Query from `rear_index`'s perspective against `front_index`'s context.
  [[nodiscard]] QueryResult query(std::size_t rear_index,
                                  std::size_t front_index,
                                  util::ThreadPool* pool = nullptr) const;

  /// Same query, but searching an explicit copy of the front vehicle's
  /// context — the V2V receiver-side trajectory, which after a lossy
  /// exchange may hold fewer metres (or quantized values) compared to the
  /// sender's in-memory context. Ground truth, SYN error oracle and the
  /// GPS baseline still come from the front rig itself.
  [[nodiscard]] QueryResult query(std::size_t rear_index,
                                  std::size_t front_index,
                                  const core::ContextTrajectory& front_context,
                                  util::ThreadPool* pool = nullptr) const;

  /// Mean absolute SYN position error (m): true route positions of the
  /// matched window ends of `syn_points` found between `rear_index`'s
  /// context and `front_context` (a copy of `front_index`'s). NaN when no
  /// point resolves.
  [[nodiscard]] double syn_error_m(
      std::size_t rear_index, std::size_t front_index,
      const core::ContextTrajectory& front_context,
      const std::vector<core::SynPoint>& syn_points) const;

  /// GPS baseline: signed separation of the two latest fixes projected
  /// onto the front vehicle's driving direction; nullopt unless both fixes
  /// are under 5 s old.
  [[nodiscard]] std::optional<double> gps_estimate(
      std::size_t rear_index, std::size_t front_index) const;

 private:
  Scenario scenario_;
  road::Route route_;
  vehicle::TrafficLightPlan lights_;
  gsm::ChannelPlan plan_;
  std::unique_ptr<gsm::GsmField> field_;
  std::vector<std::unique_ptr<VehicleRig>> rigs_;
  double now_ = 0.0;
};

}  // namespace rups::sim
