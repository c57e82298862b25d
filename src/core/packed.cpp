#include "core/packed.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.hpp"

namespace rups::core {

namespace {

constexpr float kNoLo = std::numeric_limits<float>::infinity();
constexpr float kNoHi = -std::numeric_limits<float>::infinity();

/// Order-preserving map of a float's bits onto int32 (for non-NaN values),
/// so the range scan is an integer min/max reduction that vectorizes
/// without relaxing FP semantics.
inline std::int32_t order_key(std::int32_t bits) noexcept {
  return bits ^ ((bits >> 31) & 0x7fffffff);
}

inline float from_order_key(std::int32_t k) noexcept {
  const std::int32_t b = k ^ ((k >> 31) & 0x7fffffff);
  float x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

inline std::int32_t float_bits(float x) noexcept {
  std::int32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Usable and finite, tested on the value's bits (an all-ones exponent is
/// ±inf or NaN) so both packing loops vectorize.
inline bool usable_value(std::uint8_t state, float x) noexcept {
  return (state != 0) & ((float_bits(x) & 0x7f800000) != 0x7f800000);
}

/// One cell onto the grid. Branch-free so the contiguous packing loop
/// vectorizes: a masked cell quantizes a dummy 0 dBm and is selected away.
/// The grid covers every live value, so the clamp only absorbs the last ulp
/// (and masked cells); rounds half up by truncating a positive number.
inline void quantize_cell(float x, std::uint8_t state, double offset,
                          double inv_step, std::int16_t& q,
                          std::int16_t& v) noexcept {
  constexpr double kMax = kQuantMax;
  const bool ok = usable_value(state, x);
  const double d = (static_cast<double>(ok ? x : 0.0f) - offset) * inv_step;
  const double dc = std::min(std::max(d, -kMax), kMax);
  const int qi = static_cast<int>(dc + (kMax + 1.5)) - (kQuantMax + 1);
  q = static_cast<std::int16_t>(ok ? qi : 0);
  v = static_cast<std::int16_t>(ok);
}

/// Pack-work accounting: columns (re)quantized across every PackedContext,
/// the "bytes packed" work counter of the layer budget.
obs::Counter& columns_packed_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("syn.columns_packed");
  return c;
}

/// The grid a pack whose valid values span [lo, hi] dBm uses. Steps come
/// from the ladder {1, 1.25, 1.5, 1.75} x 2^e and the offset is the range
/// midpoint snapped to a power-of-two lattice of 128-256 steps, so the grid
/// only moves when the range crosses a rung or the midpoint crosses a
/// lattice point; the smallest rung whose grid covers [lo, hi] wins. An
/// empty range (lo > hi) maps to the default params.
QuantParams grid_for_range(double lo, double hi) noexcept {
  if (!(lo <= hi)) return {};
  // Halve before combining so ranges near the float limits cannot overflow.
  const double mid = 0.5 * lo + 0.5 * hi;
  const double half = 0.5 * hi - 0.5 * lo;
  constexpr double kRungs[] = {1.0, 1.25, 1.5, 1.75};
  // Start one octave below the first rung that could cover `half`; steps
  // finer than 2^-20 dB carry no information.
  int e = std::max(-20, std::ilogb(std::max(half, 1e-9) / kQuantMax) - 1);
  for (;; ++e) {
    const double lattice = std::ldexp(1.0, e + 8);
    // floor(x + 0.5), not round-half-even: an exact whole-lattice shift of
    // the range then shifts the offset by exactly the same amount.
    const double offset = std::floor(mid / lattice + 0.5) * lattice;
    for (const double rung : kRungs) {
      const double step = std::ldexp(rung, e);
      const double reach = kQuantMax * step;
      if (hi - offset <= reach && offset - lo <= reach) return {offset, step};
    }
  }
}

}  // namespace

std::size_t PackedContext::sync(const ContextTrajectory& t,
                                std::size_t volatile_suffix_m) {
  if (t.empty()) {
    channels_ = t.channels();
    clear();
    return 0;
  }
  const std::uint64_t t_first = t.first_metre();
  const std::uint64_t t_end = t_first + t.size();
  const std::uint64_t packed_end = first_metre_ + metres_;

  // Incremental only when the trajectory is the packed range plus front
  // evictions and/or appended metres; anything else (width change, rebase,
  // shrink, gap, a row-subset pack) falls back to a full repack.
  const bool incremental = metres_ != 0 && !partial_ &&
                           channels_ == t.channels() &&
                           t_first >= first_metre_ && t_first <= packed_end &&
                           t_end >= packed_end && t.size() <= stride_;
  std::size_t keep = 0;
  if (!incremental) {
    reset(t);
  } else {
    // Front eviction: advance the view base, no data movement.
    const auto evicted = static_cast<std::size_t>(t_first - first_metre_);
    base_ += evicted;
    metres_ -= evicted;
    first_metre_ = t_first;
    if (base_ + t.size() > stride_) compact();
    // Re-pack the trailing volatile region too — the binder retro-fills
    // interpolated channels behind the newest metre, so recently packed
    // columns may be stale.
    keep = metres_ > volatile_suffix_m ? metres_ - volatile_suffix_m : 0;
    metres_ = t.size();
  }

  // Ranges first: the grid is a function of every live value, so it is
  // known before any value is quantized onto it.
  for (std::size_t i = keep; i < metres_; ++i) record_range(t, i);
  const QuantParams grid = live_grid();
  if (!(grid == params_)) {
    params_ = grid;
    keep = 0;
  }
  quantize(t, keep, {});
  columns_packed_counter().inc(metres_ - keep);
  return metres_ - keep;
}

void PackedContext::pack_rows(const ContextTrajectory& t,
                              std::span<const std::size_t> rows) {
  reset(t);
  partial_ = true;
  for (std::size_t i = 0; i < metres_; ++i) record_range(t, i);
  params_ = live_grid();
  quantize(t, 0, rows);
  columns_packed_counter().inc(metres_);
}

void PackedContext::reset(const ContextTrajectory& t) {
  channels_ = t.channels();
  // Slack so eviction-driven compaction is amortized across appends.
  const std::size_t want = std::max(t.capacity_m(), t.size());
  stride_ = want + std::max<std::size_t>(64, want / 4);
  if (channels_ * stride_ > cells_) {
    cells_ = channels_ * stride_;
    q_.reset(new std::int16_t[cells_]);
    v_.reset(new std::int16_t[cells_]);
  }
  lo_.assign(stride_, kNoLo);
  hi_.assign(stride_, kNoHi);
  base_ = 0;
  first_metre_ = t.empty() ? 0 : t.first_metre();
  metres_ = t.size();
  partial_ = false;
}

void PackedContext::compact() noexcept {
  if (base_ == 0) return;
  const std::size_t bytes = metres_ * sizeof(std::int16_t);
  for (std::size_t c = 0; c < channels_; ++c) {
    std::memmove(q_.get() + c * stride_, q_.get() + c * stride_ + base_,
                 bytes);
    std::memmove(v_.get() + c * stride_, v_.get() + c * stride_ + base_,
                 bytes);
  }
  std::memmove(lo_.data(), lo_.data() + base_, metres_ * sizeof(float));
  std::memmove(hi_.data(), hi_.data() + base_, metres_ * sizeof(float));
  base_ = 0;
}

void PackedContext::record_range(const ContextTrajectory& t,
                                 std::size_t index) {
  const PowerVector& pv = t.power(index);
  const std::size_t width = std::min(pv.channels(), channels_);
  const float* x = pv.values();
  const std::uint8_t* st = pv.states();
  const std::int32_t none_lo = order_key(float_bits(kNoLo));
  const std::int32_t none_hi = order_key(float_bits(kNoHi));
  std::int32_t lo = none_lo;
  std::int32_t hi = none_hi;
  for (std::size_t c = 0; c < width; ++c) {
    // The usable mask applied as all-ones/zero lanes, so the reduction
    // vectorizes.
    const std::int32_t ok =
        -static_cast<std::int32_t>(usable_value(st[c], x[c]));
    const std::int32_t k = order_key(float_bits(x[c]));
    lo = std::min(lo, (k & ok) | (none_lo & ~ok));
    hi = std::max(hi, (k & ok) | (none_hi & ~ok));
  }
  lo_[base_ + index] = from_order_key(lo);
  hi_[base_ + index] = from_order_key(hi);
}

QuantParams PackedContext::live_grid() const noexcept {
  float lo = kNoLo;
  float hi = kNoHi;
  for (std::size_t i = base_; i < base_ + metres_; ++i) {
    lo = std::min(lo, lo_[i]);
    hi = std::max(hi, hi_[i]);
  }
  return grid_for_range(lo, hi);
}

void PackedContext::quantize(const ContextTrajectory& t, std::size_t from,
                             std::span<const std::size_t> rows) {
  // Quantize column by column (each PowerVector is contiguous) into a
  // column-major tile, then write every channel row's slice of the tile
  // contiguously. Writing the channel-major pack one column at a time
  // would touch a different page per channel for every metre.
  constexpr std::size_t kCols = 32;   // one 64 B line of int16 per row
  constexpr std::size_t kRows = 128;  // rows per pass: 16 KB of tiles
  alignas(64) std::int16_t q_tile[kCols][kRows];
  alignas(64) std::int16_t v_tile[kCols][kRows];
  const double offset = params_.offset;
  const double inv_step = 1.0 / params_.step;
  const bool all = rows.empty();
  const std::size_t n_rows = all ? channels_ : rows.size();
  const auto channel = [&](std::size_t r) { return all ? r : rows[r]; };
  for (std::size_t i0 = from; i0 < metres_; i0 += kCols) {
    const std::size_t cols = std::min(kCols, metres_ - i0);
    for (std::size_t r0 = 0; r0 < n_rows; r0 += kRows) {
      const std::size_t n = std::min(kRows, n_rows - r0);
      for (std::size_t j = 0; j < cols; ++j) {
        const PowerVector& pv = t.power(i0 + j);
        const std::size_t width = std::min(pv.channels(), channels_);
        const float* x = pv.values();
        const std::uint8_t* st = pv.states();
        std::int16_t* q = q_tile[j];
        std::int16_t* v = v_tile[j];
        if (all) {
          // Contiguous channels: this loop vectorizes.
          const std::size_t live = width > r0 ? std::min(n, width - r0) : 0;
          for (std::size_t r = 0; r < live; ++r) {
            quantize_cell(x[r0 + r], st[r0 + r], offset, inv_step, q[r],
                          v[r]);
          }
          std::fill(q + live, q + n, std::int16_t{0});
          std::fill(v + live, v + n, std::int16_t{0});
        } else {
          for (std::size_t r = 0; r < n; ++r) {
            const std::size_t c = rows[r0 + r];
            q[r] = v[r] = 0;
            if (c < width) {
              quantize_cell(x[c], st[c], offset, inv_step, q[r], v[r]);
            }
          }
        }
      }
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t c = channel(r0 + r);
        if (c >= channels_) continue;
        std::int16_t* q = q_.get() + c * stride_ + base_ + i0;
        std::int16_t* v = v_.get() + c * stride_ + base_ + i0;
        for (std::size_t j = 0; j < cols; ++j) {
          q[j] = q_tile[j][r];
          v[j] = v_tile[j][r];
        }
      }
    }
  }
}

}  // namespace rups::core
