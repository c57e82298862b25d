#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/channel_select.hpp"
#include "core/correlation.hpp"
#include "core/packed.hpp"
#include "core/quant.hpp"
#include "core/types.hpp"
#include "util/thread_pool.hpp"

namespace rups::core {

/// Parameters of the SYN-point search (paper Secs. IV-D, V-C, VI-B).
struct SynConfig {
  /// Checking-window length in metres (paper evaluates with 85 m and the
  /// complexity analysis uses 100 m).
  std::size_t window_m = 85;
  /// Checking-window width: number of strongest channels used (paper: 45).
  std::size_t top_channels = 45;
  /// Coherency threshold on the eq.(2) scale [-2, 2] (paper: 1.2).
  double coherency_threshold = 1.2;
  /// Slide stride in metres (1 = exhaustive, the paper's search).
  std::size_t stride_m = 1;
  /// Number of SYN points sought from successively older recent segments
  /// (Sec. VI-C: multiple SYN points tame passing-vehicle outliers).
  std::size_t syn_points = 1;
  /// Spacing between the recent segments used for multi-SYN (m).
  std::size_t syn_segment_spacing_m = 25;
  /// Adaptive window (Sec. V-C): when a context is shorter than window_m,
  /// shrink the window down to min_window_m and scale the threshold.
  bool adaptive_window = true;
  std::size_t min_window_m = 10;
  /// Treat only the post-turn straight tail of each context as usable for
  /// the RECENT fixed segment (Sec. V-C: after turning onto a new road the
  /// older context belongs to a different segment). Uses TurnDetector;
  /// combines with adaptive_window to answer fast right after a turn.
  bool respect_turns = false;
  /// Coarse-to-fine search: scan positions at coarse_stride_m, then refine
  /// exhaustively around the best coarse hit. Cuts the O(m*w*k) sweep by
  /// ~coarse_stride while finding the same peak when the correlation
  /// surface is unimodal near the optimum (it is: the field decorrelates
  /// within metres). 0/1 disables.
  std::size_t coarse_stride_m = 0;
  /// Threshold multiplier applied at min_window_m (linear in window size up
  /// to 1.0 at window_m). "Combined with a smaller threshold" — Sec. V-C.
  double adaptive_threshold_floor = 0.75;
  TrajectoryCorrelationConfig correlation{};
};

/// One matched overlap between two context trajectories. Indices are the
/// START entries of the matched windows; the SYN location is the window
/// end. `correlation` is on the eq.(2) scale.
struct SynPoint {
  std::size_t index_a = 0;
  std::size_t index_b = 0;
  std::size_t window_m = 0;
  double correlation = -2.0;
};

/// Double-sliding cross-correlation search for SYN points (paper Fig 7):
/// the most recent window of trajectory A slides over all of B, then the
/// most recent window of B slides over all of A; the best position at or
/// above the coherency threshold wins. Complexity O(m * w * k) per recent
/// segment; optionally parallelized over slide positions with a ThreadPool.
///
/// Every scan runs the int16 kernel (quant.hpp) on all-channel
/// PackedContexts. Callers that query repeatedly against slowly-growing
/// trajectories should pass pre-synced packs to find()/find_one() — the
/// search then skips packing that side entirely (and a shared ego pack can
/// serve every neighbour in a batch, see FleetEngine).
class SynSeeker {
 public:
  struct Candidate {
    double correlation = -2.0;
    std::size_t position = 0;
    bool valid = false;
  };

  /// Window sizing, threshold and channel selection for one recency offset
  /// — exactly the accept/reject preamble of find_one(), factored out so
  /// SynCache's tracking mode reproduces the full search's semantics.
  /// `reject != nullptr` means the search cannot run; the label is the
  /// flight-recorder reason ("syn.empty", "syn.no_window", ...).
  struct SeekPlan {
    std::size_t window = 0;
    double threshold = 0.0;
    std::size_t a_start = 0;
    std::size_t b_start = 0;
    std::vector<std::size_t> channels_a;
    std::vector<std::size_t> channels_b;
    const char* reject = nullptr;
    double reject_v1 = 0.0;
    double reject_v2 = 0.0;
  };

  explicit SynSeeker(SynConfig config = {}, util::ThreadPool* pool = nullptr);

  /// Find up to config.syn_points SYN points between two trajectories,
  /// best-correlation first. Empty if the trajectories are unrelated.
  /// The 4-argument overload reuses caller-maintained packs for every
  /// recency offset and both slide passes; a side passed as nullptr — or as
  /// an out-of-sync pack — is packed once per call (only the channel rows
  /// the offsets' plans select), never per offset.
  [[nodiscard]] std::vector<SynPoint> find(const ContextTrajectory& a,
                                           const ContextTrajectory& b) const;
  [[nodiscard]] std::vector<SynPoint> find(const ContextTrajectory& a,
                                           const ContextTrajectory& b,
                                           const PackedContext* pack_a,
                                           const PackedContext* pack_b) const;

  /// One double-sliding pass where the fixed recent segments END
  /// `recency_offset_m` metres before the newest entry. Packs the planned
  /// rows of a side the caller did not supply (or supplied stale).
  [[nodiscard]] std::optional<SynPoint> find_one(
      const ContextTrajectory& a, const ContextTrajectory& b,
      std::size_t recency_offset_m = 0) const;
  [[nodiscard]] std::optional<SynPoint> find_one(
      const ContextTrajectory& a, const ContextTrajectory& b,
      std::size_t recency_offset_m, const PackedContext* pack_a,
      const PackedContext* pack_b) const;
  /// Scratch-reusing form: plans through the caller's SeekPlan and channel
  /// workspace (see plan_into), so a steady-state full search against
  /// stable-width trajectories with in-sync packs performs no dynamic
  /// allocation. Identical results to the allocating overloads.
  [[nodiscard]] std::optional<SynPoint> find_one(
      const ContextTrajectory& a, const ContextTrajectory& b,
      std::size_t recency_offset_m, const PackedContext* pack_a,
      const PackedContext* pack_b, SeekPlan& plan_scratch,
      ChannelSelectScratch& chan_scratch) const;

  [[nodiscard]] SeekPlan plan(const ContextTrajectory& a,
                              const ContextTrajectory& b,
                              std::size_t recency_offset_m) const;

  /// Scratch-reusing form of plan(): resets every field of `out` but keeps
  /// the channel vectors' capacity, and ranks through the caller's
  /// workspace — repeated planning against stable-width trajectories is
  /// allocation-free once warm. Identical selection arithmetic to plan().
  void plan_into(const ContextTrajectory& a, const ContextTrajectory& b,
                 std::size_t recency_offset_m, SeekPlan& out,
                 ChannelSelectScratch& scratch) const;

  /// Effective window and threshold after the adaptive-window rule
  /// (window 0 = cannot search).
  [[nodiscard]] std::pair<std::size_t, double> effective_window(
      std::size_t available_a, std::size_t available_b) const;

  /// Best correlation over the slide-position indices [pos_lo, pos_hi) on
  /// the stride grid (position metres = index * stride_m); scored in
  /// ascending kLagBlock-position blocks, ties resolve to the lowest
  /// position (bit-identical to a serial per-position scan).
  /// pos_hi is clamped to the valid position count. Used by the pool
  /// chunks, the coarse-to-fine refinement, and SynCache's narrow tracking
  /// re-verification (whose ±verify_radius band is a single natural batch).
  [[nodiscard]] Candidate best_over_positions(const ScanPair& pair,
                                              std::size_t window,
                                              std::size_t pos_lo,
                                              std::size_t pos_hi) const;

  [[nodiscard]] const SynConfig& config() const noexcept { return config_; }

 private:
  /// The seek of one planned recency offset: both slide passes and the
  /// accept rule. Unless `p` is rejected, `pack_a`/`pack_b` must hold the
  /// plan's channel rows (pack_missing_sides prepares them).
  [[nodiscard]] std::optional<SynPoint> seek_planned(
      const ContextTrajectory& a, const ContextTrajectory& b,
      std::size_t recency_offset_m, const SeekPlan& p,
      const PackedContext* pack_a, const PackedContext* pack_b) const;

  /// Slide a fixed window (starting at pair.fixed_start in the fixed pack)
  /// across all of the sliding pack; returns the best position in metres.
  [[nodiscard]] Candidate slide(const ScanPair& pair,
                                std::size_t window) const;

  /// Shared scan core: best over grid indices [grid_lo, grid_hi), where
  /// grid index q scores slide position q * metre_step metres and reports
  /// Candidate::position = q * index_step. The fine scan uses metre_step =
  /// index_step = stride_m (position in metres); the coarse scan uses
  /// metre_step = coarse*stride_m with index_step = coarse (position as a
  /// fine-grid INDEX, which is what the refinement stage consumes).
  /// Ascending blocks of kLagBlock positions through
  /// quantized_correlation_batch; the trailing partial block is rescored as an
  /// overlapped full block — recomputed lanes are bit-identical and an
  /// equal score can never displace an earlier (lower) position, so the
  /// lowest-position tie-break survives.
  [[nodiscard]] Candidate best_over_grid(const ScanPair& pair,
                                         std::size_t window,
                                         std::size_t grid_lo,
                                         std::size_t grid_hi,
                                         std::size_t metre_step,
                                         std::size_t index_step) const;

  SynConfig config_;
  util::ThreadPool* pool_;
};

}  // namespace rups::core
