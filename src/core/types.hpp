#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rups::core {

/// How a per-metre channel value came to be.
enum class ChannelState : std::uint8_t {
  kMissing = 0,       ///< never measured and not yet interpolable
  kMeasured = 1,      ///< a scanner dwell landed on this metre
  kInterpolated = 2,  ///< filled by linear interpolation over distance
};

/// RSSI over all plan channels at one metre mark of a trajectory
/// (the paper's "power vector"), with a per-channel provenance mask —
/// vehicles in motion only measure a subset of channels per metre
/// (Sec. IV-C, missing channels).
class PowerVector {
 public:
  PowerVector() = default;
  explicit PowerVector(std::size_t channels);

  [[nodiscard]] std::size_t channels() const noexcept { return rssi_.size(); }

  void set(std::size_t channel, float dbm,
           ChannelState state = ChannelState::kMeasured);

  [[nodiscard]] float at(std::size_t channel) const {
    return rssi_[channel];
  }
  [[nodiscard]] ChannelState state(std::size_t channel) const {
    return static_cast<ChannelState>(state_[channel]);
  }
  /// Usable for comparison: measured or interpolated.
  [[nodiscard]] bool usable(std::size_t channel) const {
    return state_[channel] != static_cast<std::uint8_t>(ChannelState::kMissing);
  }
  [[nodiscard]] bool measured(std::size_t channel) const {
    return state_[channel] ==
           static_cast<std::uint8_t>(ChannelState::kMeasured);
  }
  /// Contiguous per-channel values and ChannelState bytes, for readers
  /// that scan whole vectors (the SYN packer).
  [[nodiscard]] const float* values() const noexcept { return rssi_.data(); }
  [[nodiscard]] const std::uint8_t* states() const noexcept {
    return state_.data();
  }

  [[nodiscard]] std::size_t usable_count() const noexcept;
  [[nodiscard]] std::size_t measured_count() const noexcept;

  /// Mean over usable channels (0 if none).
  [[nodiscard]] double mean_usable() const noexcept;

  /// Zero every channel back to kMissing, keeping the buffers — a recycled
  /// vector is indistinguishable from PowerVector(channels()).
  void reset() noexcept;

 private:
  std::vector<float> rssi_;
  std::vector<std::uint8_t> state_;
};

/// Per-metre geographic annotation: the paper's trajectory element
/// (theta_i, t_i) — heading angle and timestamp at the i-th metre.
struct GeoSample {
  double heading_rad = 0.0;
  double time_s = 0.0;
};

/// The context-aware trajectory ST^m: a bounded, most-recent window of
/// per-metre entries, each a GeoSample bound to a PowerVector. Entry
/// distances are in the vehicle's OWN estimated odometer metres; index 0 is
/// the oldest retained metre.
class ContextTrajectory {
 public:
  /// @param channels     width (number of plan channels)
  /// @param capacity_m   retained journey-context length (paper: 1000 m)
  ContextTrajectory(std::size_t channels, std::size_t capacity_m);

  /// Append the next metre mark. Entries must be appended in odometer order.
  void append(GeoSample geo, PowerVector power);

  /// Append, returning the evicted oldest entry (empty PowerVector while
  /// still below capacity). Long-lived ingest loops reset() and refill the
  /// returned vector for the next metre, so a full ring recycles buffers
  /// instead of allocating per append.
  [[nodiscard]] PowerVector append_evict(GeoSample geo, PowerVector power);

  [[nodiscard]] std::size_t size() const noexcept { return geo_.size(); }
  [[nodiscard]] bool empty() const noexcept { return geo_.empty(); }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] std::size_t capacity_m() const noexcept { return capacity_; }

  [[nodiscard]] const GeoSample& geo(std::size_t i) const { return geo_[i]; }
  [[nodiscard]] const PowerVector& power(std::size_t i) const {
    return power_[i];
  }
  /// Mutable access (the binder retro-fills interpolated channels).
  [[nodiscard]] PowerVector& mutable_power(std::size_t i) { return power_[i]; }

  /// Estimated odometer distance (m) of entry i: metre marks are 1 m apart.
  [[nodiscard]] double distance_at(std::size_t i) const noexcept {
    return static_cast<double>(first_seq_ + i);
  }
  /// Odometer distance of the newest entry (0 if empty).
  [[nodiscard]] double end_distance_m() const noexcept {
    return empty() ? 0.0 : distance_at(size() - 1);
  }

  /// Odometer metre index of entry 0.
  [[nodiscard]] std::uint64_t first_metre() const noexcept {
    return first_seq_;
  }

  /// Re-base the odometer indexing so entry 0 sits at `first_metre`
  /// (used by the V2V codec to reconstruct the sender's indexing).
  void rebase(std::uint64_t first_metre) noexcept { first_seq_ = first_metre; }

  /// Index of the entry whose odometer metre is `metre`, if retained.
  [[nodiscard]] bool contains_metre(std::uint64_t metre) const noexcept {
    return metre >= first_seq_ && metre < first_seq_ + size();
  }
  [[nodiscard]] std::size_t index_of_metre(std::uint64_t metre) const {
    return static_cast<std::size_t>(metre - first_seq_);
  }

  /// Splice a received update onto this trajectory (the V2V receiver-side
  /// cache). Entries of `tail` that extend past our newest metre are
  /// appended (evicting the oldest as usual); overlapping metres keep our
  /// existing entries. Returns false — leaving this trajectory untouched —
  /// when the widths differ or `tail` starts beyond our end+1 (a gap from
  /// failed exchanges: the caller must fall back to a full transfer).
  bool splice_tail(const ContextTrajectory& tail);

  /// Fraction of channel slots measured (not missing/interpolated) over the
  /// whole retained context — a scanner coverage diagnostic.
  [[nodiscard]] double measured_fraction() const noexcept;

 private:
  std::size_t channels_;
  std::size_t capacity_;
  std::uint64_t first_seq_ = 0;  ///< odometer metre index of entry 0
  std::vector<GeoSample> geo_;
  std::vector<PowerVector> power_;
};

}  // namespace rups::core
