#include "sim/convoy_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/recorder.hpp"
#include "road/route_builder.hpp"
#include "util/angle.hpp"

namespace rups::sim {

namespace {

sensors::GsmScanner::Config scanner_config(const Scenario& scenario,
                                           const VehicleSetup& setup) {
  sensors::GsmScanner::Config cfg = scenario.scanner_base;
  cfg.radios = setup.radios;
  cfg.placement = setup.placement;
  return cfg;
}

core::RupsConfig engine_config(const Scenario& scenario) {
  core::RupsConfig cfg = scenario.rups;
  cfg.channels = scenario.channels;
  return cfg;
}

}  // namespace

VehicleRig::VehicleRig(const Scenario& scenario, const VehicleSetup& setup,
                       const road::Route* route,
                       const vehicle::TrafficLightPlan* lights,
                       const gsm::GsmField* field)
    : route_(route),
      field_(field),
      lane_(setup.lane),
      lane_change_mean_s_(setup.lane_change_mean_s),
      lane_rng_(util::hash_combine(setup.seed, 0x4c414e45ULL)),  // "LANE"
      controller_(setup.seed, route, lights, scenario.traffic),
      kinematics_(route, &controller_, setup.lane, setup.start_offset_m),
      passing_(setup.seed, scenario.env,
               /*horizon_s=*/3.0 * route->total_length_m() /
                   vehicle::cruise_speed_mps(scenario.env, scenario.traffic),
               scenario.passing_rate_scale),
      imu_(setup.seed),
      obd_(setup.seed),
      scanner_(&field->plan(), setup.seed, scanner_config(scenario, setup)),
      gps_(setup.seed),
      engine_(engine_config(scenario)),
      blockage_rng_(util::hash_combine(setup.seed, 0x424c4fULL)) {
  true_pos_of_metre_.reserve(
      static_cast<std::size_t>(route->total_length_m()) + 16);
}

double VehicleRig::true_position_of_metre(std::uint64_t metre) const {
  if (metre >= true_pos_of_metre_.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return true_pos_of_metre_[metre];
}

void VehicleRig::tick(double dt, const vehicle::VehicleState* leader) {
  // Car-following: keep a safe but bounded gap to the leader so the convoy
  // holds together despite independent driving styles.
  double adjust = 0.0;
  if (leader != nullptr) {
    const auto& self = kinematics_.state();
    const double gap = leader->position_m - self.position_m;
    const double closing = self.speed_mps - leader->speed_mps;
    if (gap < 12.0) {
      adjust = -3.0;
    } else if (gap < 25.0 && closing > 0.0) {
      adjust = -1.5 * closing;
    } else if (gap > 70.0) {
      adjust = 1.0;
    } else if (gap > 45.0) {
      adjust = 0.4;
    }
  }
  const auto& state = kinematics_.step(dt, adjust);

  // Occasional lane changes to an adjacent lane.
  if (lane_change_mean_s_ > 0.0) {
    if (next_lane_change_s_ <= 0.0) {
      next_lane_change_s_ =
          state.time_s + lane_rng_.exponential(1.0 / lane_change_mean_s_);
    }
    if (state.time_s >= next_lane_change_s_) {
      const int lanes = state.pose.env == road::EnvironmentType::kEightLaneUrban
                            ? 8
                            : road::lane_count(state.pose.env);
      const int delta = lane_rng_.bernoulli(0.5) ? 1 : -1;
      lane_ = std::clamp(lane_ + delta, 1, std::max(1, lanes));
      next_lane_change_s_ =
          state.time_s + lane_rng_.exponential(1.0 / lane_change_mean_s_);
    }
  }

  // Heading rate from ground truth geometry (gyro input).
  double heading_rate = 0.0;
  if (have_prev_heading_ && dt > 0.0) {
    heading_rate = util::angle_diff(state.heading_rad, prev_heading_) / dt;
  }
  prev_heading_ = state.heading_rad;
  have_prev_heading_ = true;

  // OBD first so the engine has a speed trend for reorientation.
  if (const auto speed = obd_.maybe_sample(state)) {
    engine_.on_speed(*speed);
    if (sink_ != nullptr) sink_->on_obd(*speed);
  }

  const auto imu_sample = imu_.sample(state, heading_rate);
  engine_.on_imu(imu_sample);
  if (sink_ != nullptr) sink_->on_imu(imu_sample);

  // GSM scanning: the truth callback reads the shared field at the
  // vehicle's instantaneous position, degraded by any active passing-truck
  // blockage (Sec. VI-C).
  measurement_buffer_.clear();
  const auto& pose = state.pose;
  const auto& segment = route_->segments()[pose.segment_index];
  scanner_.advance(
      state.time_s,
      [&](std::size_t channel, double t) {
        double dbm = field_->rssi_dbm(segment, pose.segment_offset_m, lane_,
                                      channel, t);
        const double blocked = passing_.attenuation_db(t);
        if (blocked > 0.0) {
          dbm -= blocked;
          dbm += blockage_rng_.gaussian(0.0, passing_.extra_noise_db(t));
        }
        return dbm;
      },
      measurement_buffer_);
  for (const auto& m : measurement_buffer_) {
    engine_.on_rssi(m);
    if (sink_ != nullptr) sink_->on_rssi(m);
  }

  if (const auto fix = gps_.maybe_fix(state)) {
    if (fix->valid) last_fix_ = fix;
    if (sink_ != nullptr) sink_->on_gps(*fix);
  }

  // Record the true position of every metre the engine just emitted.
  const std::uint64_t emitted =
      engine_.context().first_metre() + engine_.context().size();
  while (true_pos_of_metre_.size() < emitted) {
    true_pos_of_metre_.push_back(state.position_m);
  }
}

ConvoySimulation::ConvoySimulation(Scenario scenario)
    : scenario_(std::move(scenario)) {
  if (scenario_.vehicles.empty()) {
    throw std::invalid_argument("ConvoySimulation: no vehicles");
  }
  route_ = scenario_.mixed_route
               ? road::make_evaluation_route(scenario_.seed,
                                             scenario_.route_length_m)
               : road::make_uniform_route(scenario_.seed, scenario_.env,
                                          scenario_.route_length_m);
  lights_ = vehicle::TrafficLightPlan::for_route(scenario_.seed, route_);
  plan_ = gsm::ChannelPlan::evaluation_subset(scenario_.seed,
                                              scenario_.channels);
  if (scenario_.include_fm_band) {
    plan_ = gsm::ChannelPlan::combined(plan_, gsm::ChannelPlan::fm_broadcast());
  }
  scenario_.channels = plan_.size();
  field_ = std::make_unique<gsm::GsmField>(scenario_.seed, plan_);
  if (scenario_.field_override.has_value()) {
    field_->set_profile_override(*scenario_.field_override);
  }
  for (const auto& setup : scenario_.vehicles) {
    rigs_.push_back(std::make_unique<VehicleRig>(scenario_, setup, &route_,
                                                 &lights_, field_.get()));
  }
}

void ConvoySimulation::run_until(double time_s) {
  while (now_ < time_s) {
    now_ += scenario_.tick_s;
    for (std::size_t i = 0; i < rigs_.size(); ++i) {
      const vehicle::VehicleState* leader =
          i > 0 ? &rigs_[i - 1]->state() : nullptr;
      rigs_[i]->tick(scenario_.tick_s, leader);
    }
  }
}

bool ConvoySimulation::finished() const {
  for (const auto& rig : rigs_) {
    if (rig->finished()) return true;
  }
  return false;
}

ConvoySimulation::QueryResult ConvoySimulation::query(
    std::size_t rear_index, std::size_t front_index,
    util::ThreadPool* pool) const {
  return query(rear_index, front_index,
               rigs_.at(front_index)->engine().context(), pool);
}

ConvoySimulation::QueryResult ConvoySimulation::query(
    std::size_t rear_index, std::size_t front_index,
    const core::ContextTrajectory& front_context,
    util::ThreadPool* pool) const {
  const VehicleRig& rear = *rigs_.at(rear_index);
  const VehicleRig& front = *rigs_.at(front_index);

  QueryResult result;
  result.truth = rear.state().position_m - front.state().position_m;

  result.syn_points = rear.engine().find_syn_points(front_context, pool);
  result.rups = core::aggregate_estimates(
      rear.engine().context(), front_context, result.syn_points,
      rear.engine().config().aggregation);

  // The simulator knows ground truth, so every estimate can be checked
  // the moment it is produced; the recorder keeps the verdicts.
  if (result.rups.has_value()) {
    obs::FlightRecorder::global().record(
        obs::EventType::kEstimateChecked, "sim.query",
        result.rups->distance_m, result.truth,
        std::abs(result.rups->distance_m - result.truth));
  } else {
    obs::FlightRecorder::global().record(obs::EventType::kEstimateMissing,
                                         "sim.query", result.truth);
  }
  result.syn_error_m =
      syn_error_m(rear_index, front_index, front_context, result.syn_points);
  result.gps = gps_estimate(rear_index, front_index);
  return result;
}

double ConvoySimulation::syn_error_m(
    std::size_t rear_index, std::size_t front_index,
    const core::ContextTrajectory& front_context,
    const std::vector<core::SynPoint>& syn_points) const {
  const VehicleRig& rear = *rigs_.at(rear_index);
  const VehicleRig& front = *rigs_.at(front_index);
  double total = 0.0;
  std::size_t counted = 0;
  for (const auto& syn : syn_points) {
    const auto metre_rear = static_cast<std::uint64_t>(
        rear.engine().context().distance_at(syn.index_a + syn.window_m - 1));
    const auto metre_front = static_cast<std::uint64_t>(
        front_context.distance_at(syn.index_b + syn.window_m - 1));
    const double pa = rear.true_position_of_metre(metre_rear);
    const double pb = front.true_position_of_metre(metre_front);
    if (std::isnan(pa) || std::isnan(pb)) continue;
    total += std::abs(pa - pb);
    ++counted;
  }
  return counted ? total / static_cast<double>(counted)
                 : std::numeric_limits<double>::quiet_NaN();
}

std::optional<double> ConvoySimulation::gps_estimate(
    std::size_t rear_index, std::size_t front_index) const {
  const VehicleRig& rear = *rigs_.at(rear_index);
  const VehicleRig& front = *rigs_.at(front_index);
  const auto& fix_r = rear.last_gps_fix();
  const auto& fix_f = front.last_gps_fix();
  if (!(fix_r.has_value() && fix_f.has_value() &&
        now_ - fix_r->time_s < 5.0 && now_ - fix_f->time_s < 5.0)) {
    return std::nullopt;
  }
  const double hx = std::cos(front.state().heading_rad);
  const double hy = std::sin(front.state().heading_rad);
  const double dx = fix_r->x_m - fix_f->x_m;
  const double dy = fix_r->y_m - fix_f->y_m;
  return dx * hx + dy * hy;
}

}  // namespace rups::sim
