#pragma once

// Packed, reusable int16 representation of a ContextTrajectory for the
// SYN-search kernel (quant.hpp). RSSI is dBm in a narrow physical range and
// eq. (2) is built from Pearson correlations, which are invariant under a
// positive affine map of either operand, so every value is stored on one
// per-pack affine grid, q = round((x - offset) / step). The kernel then
// accumulates EXACT integer moment sums (DESIGN §15).
//
// PackedContext packs ALL channels once (so the pack is valid for any
// checking-window channel subset) and extends incrementally as the
// trajectory grows, which is what makes SYN caching and fleet-scale
// batching (one ego pack shared by N neighbour queries) cheap.
//
// The grid is a pure function of the retained data's value range, and a
// sync that moves the range onto another grid requantizes every column.
// An incrementally synced pack is therefore bit-identical to a one-shot
// pack of the same trajectory, whatever its sync history: a caller's
// long-lived pack and a seek's temporary pack score every window
// identically.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace rups::core {

/// Quantized magnitude cap. ±1023 (not ±32767) so that every per-window
/// integer moment sum fits int32 even at the maximum supported window —
/// which lets the SIMD kernels accumulate and reduce entirely in 32-bit
/// lanes: |Σ q_a·q_b| <= kQuantMaxWindowM * 1023² < 2³¹.
inline constexpr int kQuantMax = 1023;

/// Per-pack affine quantization map: q = round((x - offset) / step) for a
/// dBm value x.
struct QuantParams {
  double offset = 0.0;
  double step = 1.0;

  friend bool operator==(const QuantParams&, const QuantParams&) = default;
};

/// Borrowed view of a packed trajectory region: channel-major rows of
/// pre-masked quantized values (0 where unusable) and 0/1 validity, plus
/// the pack's grid. Row of channel c starts at q + c*stride; columns are
/// metres.
struct PackedSpan {
  const std::int16_t* q = nullptr;
  const std::int16_t* v = nullptr;
  std::size_t stride = 0;    ///< elements between consecutive channel rows
  std::size_t metres = 0;    ///< columns in the view
  std::size_t channels = 0;  ///< rows
  QuantParams params{};
};

/// A pack plus its row map: rows[kk] is the row index (= channel id) of the
/// kk-th checking channel inside `span`.
struct PackedView {
  PackedSpan span{};
  std::span<const std::size_t> rows{};
};

/// Owning, incrementally-maintained pack of one trajectory. sync() mirrors
/// the trajectory's current retained range:
///   * pure growth appends new columns (O(channels) per new metre),
///   * front eviction just advances the view base (no data movement),
///   * a trailing `volatile_suffix_m` region is unconditionally re-packed —
///     the TrajectoryBinder retro-fills interpolated channels up to its
///     interpolation gap behind the newest metre, so those columns may have
///     changed since the last sync,
///   * a value range that maps to another grid requantizes every column,
///   * anything else (width change, shrink, gap, rebase) falls back to a
///     full repack.
/// Non-finite values (fuzzed NaN/±inf inputs) are masked unusable. The
/// backing buffer over-allocates by ~25% so eviction-driven compaction is
/// amortized O(channels) per appended metre. Move-only. Every packed
/// column is counted in the `syn.columns_packed` counter.
class PackedContext {
 public:
  /// Default re-pack horizon; must cover the binder's retro-fill reach
  /// (TrajectoryBinder::Config::max_interpolation_gap_m, default 40).
  static constexpr std::size_t kDefaultVolatileSuffixM = 48;

  PackedContext() = default;

  /// Bring the pack in sync with `t`. Returns the number of columns
  /// (re)packed — size() on a full repack or requantize,
  /// ~volatile_suffix_m + growth in steady state.
  std::size_t sync(const ContextTrajectory& t,
                   std::size_t volatile_suffix_m = kDefaultVolatileSuffixM);

  /// One-shot pack of `t` that quantizes only the channel rows in `rows`
  /// (a seek's own pack of a side the caller did not supply). The grid
  /// still spans every channel's values, so the packed rows are
  /// bit-identical to a full pack's; other rows hold unspecified values,
  /// so the pack serves only scans of `rows`. The next sync() repacks in
  /// full.
  void pack_rows(const ContextTrajectory& t, std::span<const std::size_t> rows);

  [[nodiscard]] PackedSpan span() const noexcept {
    return {q_.get() + base_, v_.get() + base_, stride_,
            metres_,          channels_,        params_};
  }

  [[nodiscard]] bool empty() const noexcept { return metres_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return metres_; }
  [[nodiscard]] std::size_t channels() const noexcept { return channels_; }
  [[nodiscard]] const QuantParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t first_metre() const noexcept {
    return first_metre_;
  }
  /// True when the pack currently mirrors `t`'s retained range on every
  /// channel row (never for a pack_rows() pack).
  [[nodiscard]] bool in_sync_with(const ContextTrajectory& t) const noexcept {
    return !partial_ && channels_ == t.channels() && metres_ == t.size() &&
           (t.empty() || first_metre_ == t.first_metre());
  }

  void clear() noexcept {
    base_ = metres_ = 0;
    first_metre_ = 0;
    partial_ = false;
  }

 private:
  /// Size the storage for `t` and empty the view (full repack follows).
  void reset(const ContextTrajectory& t);
  /// Record the value range of column `index` of `t`.
  void record_range(const ContextTrajectory& t, std::size_t index);
  /// Quantize columns [from, size()) of `t` onto params_: every channel
  /// row, or only `rows` when it is non-empty.
  void quantize(const ContextTrajectory& t, std::size_t from,
                std::span<const std::size_t> rows);
  /// Grid of the live columns' value range.
  [[nodiscard]] QuantParams live_grid() const noexcept;
  void compact() noexcept;

  std::size_t channels_ = 0;
  std::size_t stride_ = 0;
  std::uint64_t first_metre_ = 0;  ///< odometer metre of column `base_`
  std::size_t base_ = 0;           ///< first live column in the buffer
  std::size_t metres_ = 0;         ///< live columns
  bool partial_ = false;           ///< pack_rows() left rows unpacked
  QuantParams params_{};
  /// Channel-major cells, channels_ rows of stride_. Left uninitialized
  /// when allocated: only live columns are ever read, and every sync or
  /// pack_rows writes them first — so a row-subset pack never touches the
  /// pages of rows it does not pack.
  std::unique_ptr<std::int16_t[]> q_, v_;
  std::size_t cells_ = 0;  ///< capacity of q_ and v_
  /// Per-column min/max of the usable finite values (+inf/-inf when none).
  std::vector<float> lo_, hi_;
};

}  // namespace rups::core
