#pragma once

// Scalar double-precision SYN search: SynSeeker's plan (window, threshold,
// channel selection) and accept rules, with every slide position scored by
// the reference trajectory_correlation() instead of the int16 kernel. The
// differential suites bound the kernel against it (DESIGN §15: score
// within 2e-2, identical argmax).

#include <algorithm>
#include <optional>
#include <vector>

#include "core/correlation.hpp"
#include "core/syn_seeker.hpp"

namespace rups::core::testing {

/// Reference counterpart of SynSeeker::find_one (exhaustive scan on the
/// stride grid; coarse-to-fine and the pool are timing-only and ignored).
inline std::optional<SynPoint> reference_find_one(
    const SynSeeker& seeker, const ContextTrajectory& a,
    const ContextTrajectory& b, std::size_t recency_offset_m) {
  const SynSeeker::SeekPlan p = seeker.plan(a, b, recency_offset_m);
  if (p.reject != nullptr) return std::nullopt;
  const SynConfig& cfg = seeker.config();
  const auto slide = [&](const ContextTrajectory& fixed,
                         std::size_t fixed_start,
                         const ContextTrajectory& sliding,
                         const std::vector<std::size_t>& channels) {
    SynSeeker::Candidate best;
    for (std::size_t pos = 0; pos + p.window <= sliding.size();
         pos += cfg.stride_m) {
      const double s = trajectory_correlation(
          {&fixed, fixed_start}, {&sliding, pos}, p.window, channels,
          cfg.correlation);
      if (!best.valid || s > best.correlation) best = {s, pos, true};
    }
    return best;
  };
  const SynSeeker::Candidate on_b = slide(a, p.a_start, b, p.channels_a);
  const SynSeeker::Candidate on_a = slide(b, p.b_start, a, p.channels_b);
  std::optional<SynPoint> best;
  if (on_b.valid && on_b.correlation >= p.threshold) {
    best = SynPoint{p.a_start, on_b.position, p.window, on_b.correlation};
  }
  if (on_a.valid && on_a.correlation >= p.threshold &&
      (!best || on_a.correlation > best->correlation)) {
    best = SynPoint{on_a.position, p.b_start, p.window, on_a.correlation};
  }
  return best;
}

/// Reference counterpart of SynSeeker::find: every recency offset,
/// best-correlation first.
inline std::vector<SynPoint> reference_find(const SynSeeker& seeker,
                                            const ContextTrajectory& a,
                                            const ContextTrajectory& b) {
  std::vector<SynPoint> out;
  const SynConfig& cfg = seeker.config();
  for (std::size_t k = 0; k < std::max<std::size_t>(1, cfg.syn_points); ++k) {
    const auto syn =
        reference_find_one(seeker, a, b, k * cfg.syn_segment_spacing_m);
    if (syn) out.push_back(*syn);
  }
  std::sort(out.begin(), out.end(), [](const SynPoint& x, const SynPoint& y) {
    return x.correlation > y.correlation;
  });
  return out;
}

}  // namespace rups::core::testing
