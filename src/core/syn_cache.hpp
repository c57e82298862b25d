#pragma once

// SYN caching (tracking mode). The paper re-runs the full double-sliding
// search for every query; between two queries a few seconds apart the
// matched alignment between two trajectories barely moves — both vehicles
// simply appended metres, so the locked (local − neighbour) odometer offset
// of the last accepted SYN point is an excellent predictor of where the
// next one lands. SynCache remembers that offset plus incrementally-packed
// correlation windows and, on the next query, re-verifies the correlation
// peak in a narrow band around the prediction. The re-verification uses
// the exact search plan (adaptive window, threshold, channel selection) and
// the exact kernel of the full search, so an accepted tracked SYN point is
// one the full search could also have produced, judged against the same
// coherency threshold (1.2 by default). Any miss — band empty, peak below
// threshold — falls back to the full SynSeeker search for that offset.
// Steady-state per-query cost drops from O(m·w·k) to O(radius·w·k).

#include <cstdint>
#include <optional>
#include <vector>

#include "core/packed.hpp"
#include "core/syn_seeker.hpp"

namespace rups::core {

struct SynCacheConfig {
  /// Half-width (in slide positions) of the re-verification band around the
  /// predicted alignment. Covers inter-query odometer drift: on a physical
  /// convoy at 2 Hz every estimate equals a full search (test_campaign's
  /// convoy × beacon case pins this).
  std::size_t verify_radius_m = 12;
  /// When false every query runs the full search (packs are still reused).
  bool enabled = true;
};

/// Per-neighbour SYN search cache. Not thread-safe: one instance serves one
/// (local, neighbour) pair from one thread at a time — FleetEngine shards
/// one SynCache per neighbour id.
class SynCache {
 public:
  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t tracking_hits = 0;    ///< offsets resolved by the band
    std::uint64_t tracking_misses = 0;  ///< band failed -> full fallback
    std::uint64_t full_searches = 0;    ///< full find_one runs (incl. cold)
    std::uint64_t invalidations = 0;    ///< lock dropped (query found no SYN)
  };

  explicit SynCache(SynConfig syn = {}, SynCacheConfig config = {});

  /// Drop-in equivalent of SynSeeker(syn).find(local, neighbour): up to
  /// syn_points SYN points, best-correlation first. `local_pack`, when
  /// supplied and in sync with `local`, is reused (FleetEngine shares one
  /// ego pack across all neighbour shards); otherwise the cache maintains
  /// its own.
  [[nodiscard]] std::vector<SynPoint> find(
      const ContextTrajectory& local, const ContextTrajectory& neighbour,
      const PackedContext* local_pack = nullptr);

  /// Scratch-reusing form of find(): writes the SYN points into `out`
  /// (cleared first, capacity retained). On the warm tracking path —
  /// every offset resolved by the band — this performs no dynamic
  /// allocation once the session's scratch vectors are warm; only the
  /// cold / fallback full searches allocate.
  void find_into(const ContextTrajectory& local,
                 const ContextTrajectory& neighbour,
                 const PackedContext* local_pack,
                 std::vector<SynPoint>& out);

  /// Tracking lock held from a previous accepted SYN point?
  [[nodiscard]] bool locked() const noexcept { return locked_; }
  /// Locked (local − neighbour) odometer-metre alignment offset.
  [[nodiscard]] std::int64_t lock_offset_m() const noexcept {
    return lock_offset_m_;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SynCacheConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const SynConfig& syn_config() const noexcept {
    return seeker_.config();
  }

  /// Drop the tracking lock (the next query runs the full search).
  void invalidate() noexcept;

 private:
  struct TrackOutcome {
    bool resolved = false;  ///< false = fall back to the full search
    std::optional<SynPoint> syn;
  };

  /// Non-const: plans through the member scratch (plan_scratch_ /
  /// chan_scratch_) so warm re-verification never heap-allocates.
  [[nodiscard]] TrackOutcome verify_tracked(const ContextTrajectory& local,
                                            const ContextTrajectory& neighbour,
                                            std::size_t recency_offset_m,
                                            const PackedSpan& local_span,
                                            const PackedSpan& neighbour_span);

  void update_lock(const ContextTrajectory& local,
                   const ContextTrajectory& neighbour,
                   const std::vector<SynPoint>& syns) noexcept;

  SynCacheConfig config_;
  SynSeeker seeker_;
  PackedContext local_pack_;
  PackedContext neighbour_pack_;
  bool locked_ = false;
  std::int64_t lock_offset_m_ = 0;
  Stats stats_;
  /// Reusable planning workspace for the warm tracking path.
  SynSeeker::SeekPlan plan_scratch_;
  ChannelSelectScratch chan_scratch_;
};

}  // namespace rups::core
