#include "core/binder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rups::core {

TrajectoryBinder::TrajectoryBinder(std::size_t channels)
    : TrajectoryBinder(channels, Config{}) {}

TrajectoryBinder::TrajectoryBinder(std::size_t channels, Config config)
    : channels_(channels),
      config_(config),
      open_(channels),
      last_seen_(channels) {
  if (channels == 0) throw std::invalid_argument("TrajectoryBinder: 0 ch");
}

void TrajectoryBinder::add_measurement(std::size_t channel, double distance_m,
                                       float rssi_dbm,
                                       ContextTrajectory& trajectory) {
  if (channel >= channels_) throw std::out_of_range("binder channel");
  const auto metre =
      static_cast<std::uint64_t>(std::max(0.0, std::floor(distance_m)));
  if (metre == next_metre_) {
    open_.set(channel, rssi_dbm, ChannelState::kMeasured);
  } else if (metre > next_metre_) {
    future_.push_back({metre, channel, rssi_dbm});
  } else {
    // Late measurement for an already-finalized metre: retro-fill if the
    // entry is retained and the slot is not already measured.
    place(metre, channel, rssi_dbm, trajectory);
  }
}

void TrajectoryBinder::place(std::uint64_t metre, std::size_t channel,
                             float rssi, ContextTrajectory& trajectory) {
  if (!trajectory.contains_metre(metre)) return;
  const std::size_t i = trajectory.index_of_metre(metre);
  if (!trajectory.power(i).measured(channel)) {
    trajectory.mutable_power(i).set(channel, rssi, ChannelState::kMeasured);
  }
}

void TrajectoryBinder::interpolate_channel(std::size_t channel,
                                           std::uint64_t from_metre,
                                           float from_rssi,
                                           std::uint64_t to_metre,
                                           float to_rssi,
                                           ContextTrajectory& trajectory) {
  const double span = static_cast<double>(to_metre - from_metre);
  for (std::uint64_t m = from_metre + 1; m < to_metre; ++m) {
    if (!trajectory.contains_metre(m)) continue;
    const std::size_t i = trajectory.index_of_metre(m);
    // Inspect first: only an actual write stamps the entry.
    if (trajectory.power(i).state(channel) != ChannelState::kMissing) {
      continue;
    }
    const double t = static_cast<double>(m - from_metre) / span;
    trajectory.mutable_power(i).set(
        channel, static_cast<float>(from_rssi + (to_rssi - from_rssi) * t),
        ChannelState::kInterpolated);
  }
}

void TrajectoryBinder::bind_metre(std::uint64_t metre_index, GeoSample geo,
                                  ContextTrajectory& trajectory) {
  if (metre_index < next_metre_) {
    throw std::invalid_argument("bind_metre: metres must be monotone");
  }
  // Finalize every metre up to and including metre_index. Intermediate
  // metres (if the caller skipped marks) get empty power vectors.
  while (next_metre_ <= metre_index) {
    PowerVector finished(channels_);
    std::swap(finished, open_);

    // Interpolation bookkeeping BEFORE appending, so the fill targets the
    // already-retained gap metres.
    const std::uint64_t m = next_metre_;
    for (std::size_t c = 0; c < channels_; ++c) {
      if (!finished.measured(c)) continue;
      LastSeen& seen = last_seen_[c];
      if (config_.interpolate && seen.any && m > seen.metre + 1 &&
          m - seen.metre <= config_.max_interpolation_gap_m) {
        interpolate_channel(c, seen.metre, seen.rssi, m, finished.at(c),
                            trajectory);
      }
      seen = {m, finished.at(c), true};
    }

    trajectory.append(geo, std::move(finished));
    ++next_metre_;

    // Pull forward any buffered measurements that now belong to the newly
    // opened metre.
    auto it = std::remove_if(future_.begin(), future_.end(),
                             [&](const Pending& p) {
                               if (p.metre == next_metre_) {
                                 open_.set(p.channel, p.rssi,
                                           ChannelState::kMeasured);
                                 return true;
                               }
                               return false;
                             });
    future_.erase(it, future_.end());
  }
}

}  // namespace rups::core
