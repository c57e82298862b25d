#include "core/syn_seeker.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "core/channel_select.hpp"
#include "core/turn_detector.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/timer.hpp"

namespace rups::core {

namespace {

/// Sec. V-A / VI-E cost accounting for the SYN search. Handles resolve
/// once; increments happen in bulk per scan call, never per position, so
/// the packed kernel stays untouched.
struct SynMetrics {
  obs::Counter& seeks = obs::Registry::global().counter("syn.seeks");
  obs::Counter& windows =
      obs::Registry::global().counter("syn.windows_scanned");
  obs::Counter& kernel_blocks =
      obs::Registry::global().counter("syn.kernel_blocks");
  obs::Counter& accepted =
      obs::Registry::global().counter("syn.candidates_accepted");
  obs::Counter& rejected =
      obs::Registry::global().counter("syn.candidates_rejected");
  obs::Counter& coherency_pass =
      obs::Registry::global().counter("syn.coherency_pass");
  obs::Counter& coherency_fail =
      obs::Registry::global().counter("syn.coherency_fail");
  obs::Histogram& seek_us =
      obs::Registry::global().histogram("syn.seek_us");
  obs::Histogram& kernel_us =
      obs::Registry::global().histogram("syn.kernel_us");
  /// Per-outcome seek split: "accepted", "below_threshold", or the plan's
  /// reject reason literal.
  obs::CounterFamily& outcomes =
      obs::Registry::global().counter_family("syn.seek_outcome", "outcome");
};

SynMetrics& syn_metrics() {
  static SynMetrics m;
  return m;
}

/// Deterministic merge of per-chunk scan results: ties resolve to the
/// lowest position, matching what one ascending serial scan would return.
SynSeeker::Candidate reduce_chunks(
    const std::vector<SynSeeker::Candidate>& chunk_best) {
  SynSeeker::Candidate best;
  for (const SynSeeker::Candidate& c : chunk_best) {
    if (!c.valid) continue;
    if (!best.valid || c.correlation > best.correlation ||
        (c.correlation == best.correlation && c.position < best.position)) {
      best = c;
    }
  }
  return best;
}

/// True when `pack` mirrors `t` and can serve its seeks as is.
bool usable_pack(const PackedContext* pack, const ContextTrajectory& t) {
  return pack != nullptr && pack->in_sync_with(t);
}

/// Points `pack_a`/`pack_b` at packs the seeks of `plans` can read: a side
/// the caller did not supply (or supplied stale or row-subset — correctness
/// never depends on the caller keeping packs fresh) is packed into `own_a` /
/// `own_b`, restricted to the channel rows the plans' slide passes read.
/// Packs nothing when every plan is rejected (no seek will scan).
void pack_missing_sides(const ContextTrajectory& a,
                        const ContextTrajectory& b,
                        std::span<const SynSeeker::SeekPlan> plans,
                        const PackedContext*& pack_a,
                        const PackedContext*& pack_b, PackedContext& own_a,
                        PackedContext& own_b) {
  const bool have_a = usable_pack(pack_a, a);
  const bool have_b = usable_pack(pack_b, b);
  if (have_a && have_b) return;
  std::vector<std::size_t> rows;
  for (const SynSeeker::SeekPlan& p : plans) {
    if (p.reject != nullptr) continue;
    rows.insert(rows.end(), p.channels_a.begin(), p.channels_a.end());
    rows.insert(rows.end(), p.channels_b.begin(), p.channels_b.end());
  }
  if (rows.empty()) return;
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (!have_a) {
    own_a.pack_rows(a, rows);
    pack_a = &own_a;
  }
  if (!have_b) {
    own_b.pack_rows(b, rows);
    pack_b = &own_b;
  }
}

}  // namespace

SynSeeker::SynSeeker(SynConfig config, util::ThreadPool* pool)
    : config_(config), pool_(pool) {}

std::pair<std::size_t, double> SynSeeker::effective_window(
    std::size_t available_a, std::size_t available_b) const {
  const std::size_t avail = std::min(available_a, available_b);
  if (avail >= config_.window_m) {
    return {config_.window_m, config_.coherency_threshold};
  }
  if (!config_.adaptive_window || avail < config_.min_window_m) {
    return {0, config_.coherency_threshold};  // 0 = cannot search
  }
  // Linear threshold relaxation between min_window_m and window_m.
  const double t =
      static_cast<double>(avail - config_.min_window_m) /
      static_cast<double>(config_.window_m - config_.min_window_m);
  const double scale =
      config_.adaptive_threshold_floor +
      (1.0 - config_.adaptive_threshold_floor) * std::clamp(t, 0.0, 1.0);
  return {avail, config_.coherency_threshold * scale};
}

SynSeeker::SeekPlan SynSeeker::plan(const ContextTrajectory& a,
                                    const ContextTrajectory& b,
                                    std::size_t recency_offset_m) const {
  SeekPlan p;
  ChannelSelectScratch scratch;
  plan_into(a, b, recency_offset_m, p, scratch);
  return p;
}

void SynSeeker::plan_into(const ContextTrajectory& a,
                          const ContextTrajectory& b,
                          std::size_t recency_offset_m, SeekPlan& p,
                          ChannelSelectScratch& scratch) const {
  p.window = 0;
  p.threshold = 0.0;
  p.a_start = 0;
  p.b_start = 0;
  p.channels_a.clear();
  p.channels_b.clear();
  p.reject = nullptr;
  p.reject_v1 = 0.0;
  p.reject_v2 = 0.0;
  if (a.empty() || b.empty()) {
    p.reject = "syn.empty";
    return;
  }
  if (a.size() <= recency_offset_m || b.size() <= recency_offset_m) {
    p.reject = "syn.recency_overflow";
    return;
  }
  // Post-turn limiting (Sec. V-C): the RECENT fixed segment must not span
  // a turn — the metres before it belong to a different road.
  std::size_t avail_a = a.size() - recency_offset_m;
  std::size_t avail_b = b.size() - recency_offset_m;
  if (config_.respect_turns) {
    const auto tail_a =
        static_cast<std::size_t>(TurnDetector::straight_tail_metres(a));
    const auto tail_b =
        static_cast<std::size_t>(TurnDetector::straight_tail_metres(b));
    if (tail_a <= recency_offset_m || tail_b <= recency_offset_m) {
      p.reject = "syn.turn_limited";
      return;
    }
    avail_a = std::min(avail_a, tail_a - recency_offset_m);
    avail_b = std::min(avail_b, tail_b - recency_offset_m);
  }
  const auto [window, threshold] = effective_window(avail_a, avail_b);
  p.threshold = threshold;
  if (window == 0) {
    p.reject = "syn.no_window";
    p.reject_v1 = static_cast<double>(std::min(avail_a, avail_b));
    p.reject_v2 = threshold;
    return;
  }
  p.window = window;
  p.a_start = a.size() - recency_offset_m - window;
  p.b_start = b.size() - recency_offset_m - window;

  // Channel selection from the fixed segments (top-k strongest).
  select_top_channels_into(a, p.a_start, window, config_.top_channels, scratch,
                           p.channels_a);
  select_top_channels_into(b, p.b_start, window, config_.top_channels, scratch,
                           p.channels_b);
  if (p.channels_a.empty() || p.channels_b.empty()) {
    p.reject = "syn.no_channels";
    p.reject_v1 = static_cast<double>(window);
    p.reject_v2 = threshold;
    return;
  }
}

SynSeeker::Candidate SynSeeker::best_over_positions(
    const ScanPair& pair, std::size_t window, std::size_t pos_lo,
    std::size_t pos_hi) const {
  Candidate best;
  if (pair.sliding.span.metres < window) return best;
  const std::size_t positions =
      (pair.sliding.span.metres - window) / config_.stride_m + 1;
  pos_hi = std::min(pos_hi, positions);
  if (pos_lo >= pos_hi) return best;
  return best_over_grid(pair, window, pos_lo, pos_hi, config_.stride_m,
                        config_.stride_m);
}

SynSeeker::Candidate SynSeeker::best_over_grid(
    const ScanPair& pair, std::size_t window, std::size_t grid_lo,
    std::size_t grid_hi, std::size_t metre_step,
    std::size_t index_step) const {
  Candidate best;
  if (grid_lo >= grid_hi) return best;
  const auto reduce = [&best, index_step](const double* scores,
                                          std::size_t first,
                                          std::size_t count) {
    for (std::size_t b = 0; b < count; ++b) {
      if (!best.valid || scores[b] > best.correlation) {
        best = {scores[b], (first + b) * index_step, true};
      }
    }
  };

  // Strided grids (coarse scan, stride_m > 1) take the same loop: the
  // kernel's along-window pass scores strided lanes at contiguous cost.
  double scores[kLagBlock];
  const auto scan = [&](std::size_t first, std::size_t count) {
    quantized_correlation_batch(pair.fixed, pair.fixed_start, pair.sliding,
                                first * metre_step, count, window,
                                config_.correlation, scores, metre_step);
    reduce(scores, first, count);
  };
  std::size_t q = grid_lo;
  for (; q + kLagBlock <= grid_hi; q += kLagBlock) scan(q, kLagBlock);
  std::size_t blocks = (q - grid_lo) / kLagBlock;
  if (q < grid_hi) {
    if (grid_hi - grid_lo >= kLagBlock) {
      // Overlapped tail: rescore the last kLagBlock grid points. The
      // re-seen lanes are bit-identical to their full-block scores, and an
      // equal score can never displace `best` (strict >), so the
      // lowest-position tie-break is untouched.
      scan(grid_hi - kLagBlock, kLagBlock);
      blocks += 1;
    } else {
      scan(q, grid_hi - q);
      blocks += grid_hi - q;  // degenerate single-position blocks
    }
  }
  syn_metrics().kernel_blocks.inc(blocks);
  return best;
}

SynSeeker::Candidate SynSeeker::slide(const ScanPair& pair,
                                      std::size_t window) const {
  Candidate best;
  if (pair.sliding.span.metres < window) return best;
  const std::size_t positions =
      (pair.sliding.span.metres - window) / config_.stride_m + 1;

  // Chunk a grid of `count` scan points for the pool: chunk lengths are
  // rounded up to whole kLagBlock batches so only each chunk's final block
  // can be partial, and the per-chunk scans stay bit-identical to one
  // serial ascending scan (so the deterministic reduction is exact).
  const auto aligned_chunks = [this](std::size_t count) {
    std::size_t chunk_len =
        (count + pool_->size() - 1) / std::max<std::size_t>(pool_->size(), 1);
    chunk_len = ((chunk_len + kLagBlock - 1) / kLagBlock) * kLagBlock;
    const std::size_t chunks = (count + chunk_len - 1) / chunk_len;
    return std::pair{chunks, chunk_len};
  };

  // Coarse-to-fine: scan every coarse_stride-th position, then refine the
  // neighbourhood of the best coarse hit exhaustively. Like the fine scan
  // it is parallelized over the pool with the lowest-position tie-break
  // reduction. The kernel scores any stride at batch cost, so every coarse
  // stride > 1 pays off.
  if (config_.coarse_stride_m > 1 && positions > 4 * config_.coarse_stride_m) {
    const std::size_t coarse = config_.coarse_stride_m;
    const std::size_t coarse_count = (positions + coarse - 1) / coarse;
    syn_metrics().windows.inc(coarse_count);
    const std::size_t metre_step = coarse * config_.stride_m;
    Candidate coarse_best;  // position = fine-grid index, not metres
    if (pool_ == nullptr || coarse_count < 64) {
      coarse_best =
          best_over_grid(pair, window, 0, coarse_count, metre_step, coarse);
    } else {
      const auto [chunks, chunk_len] = aligned_chunks(coarse_count);
      std::vector<Candidate> chunk_best(chunks);
      pool_->parallel_for(0, chunks, [&](std::size_t ci) {
        const std::size_t lo = ci * chunk_len;
        const std::size_t hi = std::min(coarse_count, lo + chunk_len);
        chunk_best[ci] =
            best_over_grid(pair, window, lo, hi, metre_step, coarse);
      });
      coarse_best = reduce_chunks(chunk_best);
    }
    if (!coarse_best.valid) return best;
    const std::size_t lo =
        coarse_best.position > coarse ? coarse_best.position - coarse : 0;
    const std::size_t hi =
        std::min(positions, coarse_best.position + coarse + 1);
    syn_metrics().windows.inc(hi - lo);
    return best_over_positions(pair, window, lo, hi);
  }

  syn_metrics().windows.inc(positions);
  if (pool_ == nullptr || positions < 64) {
    return best_over_positions(pair, window, 0, positions);
  }

  // Parallel: per-chunk maxima reduced deterministically (ties resolve to
  // the lowest position, matching the sequential scan).
  const auto [chunks, chunk_len] = aligned_chunks(positions);
  std::vector<Candidate> chunk_best(chunks);
  pool_->parallel_for(0, chunks, [&](std::size_t ci) {
    const std::size_t lo = ci * chunk_len;
    const std::size_t hi = std::min(positions, lo + chunk_len);
    chunk_best[ci] = best_over_positions(pair, window, lo, hi);
  });
  return reduce_chunks(chunk_best);
}

std::optional<SynPoint> SynSeeker::find_one(
    const ContextTrajectory& a, const ContextTrajectory& b,
    std::size_t recency_offset_m) const {
  return find_one(a, b, recency_offset_m, nullptr, nullptr);
}

std::optional<SynPoint> SynSeeker::find_one(
    const ContextTrajectory& a, const ContextTrajectory& b,
    std::size_t recency_offset_m, const PackedContext* pack_a,
    const PackedContext* pack_b) const {
  SeekPlan plan_scratch;
  ChannelSelectScratch chan_scratch;
  return find_one(a, b, recency_offset_m, pack_a, pack_b, plan_scratch,
                  chan_scratch);
}

std::optional<SynPoint> SynSeeker::find_one(
    const ContextTrajectory& a, const ContextTrajectory& b,
    std::size_t recency_offset_m, const PackedContext* pack_a,
    const PackedContext* pack_b, SeekPlan& plan_scratch,
    ChannelSelectScratch& chan_scratch) const {
  plan_into(a, b, recency_offset_m, plan_scratch, chan_scratch);
  PackedContext own_a;
  PackedContext own_b;
  pack_missing_sides(a, b, {&plan_scratch, 1}, pack_a, pack_b, own_a, own_b);
  return seek_planned(a, b, recency_offset_m, plan_scratch, pack_a, pack_b);
}

std::optional<SynPoint> SynSeeker::seek_planned(
    const ContextTrajectory& a, const ContextTrajectory& b,
    std::size_t recency_offset_m, const SeekPlan& p,
    const PackedContext* pack_a, const PackedContext* pack_b) const {
  SynMetrics& metrics = syn_metrics();
  metrics.seeks.inc();
  obs::ObsTimer timer(&metrics.seek_us, "syn.seek");
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.record(obs::EventType::kSeekStarted, "syn.seek",
                  static_cast<double>(a.size()), static_cast<double>(b.size()),
                  static_cast<double>(recency_offset_m));
  if (p.reject != nullptr) {
    metrics.outcomes.with(p.reject).inc();
    recorder.record(obs::EventType::kSeekRejected, p.reject, 0.0, p.reject_v1,
                    p.reject_v2);
    return std::nullopt;
  }

  // All-channel row layout, so the row maps are the selected channel ids
  // themselves and one pack serves a side's fixed and sliding roles.
  const PackedSpan sa = pack_a->span();
  const PackedSpan sb = pack_b->span();
  const ScanPair pass1{{sa, p.channels_a}, p.a_start, {sb, p.channels_a}};
  const ScanPair pass2{{sb, p.channels_b}, p.b_start, {sa, p.channels_b}};

  // Both correlation-scan passes share one kernel span: the child of
  // "syn.seek" that shows up in the paper's Fig. 10-12 cost breakdowns.
  obs::ObsTimer kernel_timer(&metrics.kernel_us, "syn.kernel");
  // Pass 1 (Fig 7 left): recent segment of A slides over B.
  const Candidate on_b = slide(pass1, p.window);
  // Pass 2 (Fig 7 right): recent segment of B slides over A.
  const Candidate on_a = slide(pass2, p.window);
  kernel_timer.stop();

  for (const Candidate& c : {on_b, on_a}) {
    if (!c.valid) continue;
    (c.correlation >= p.threshold ? metrics.accepted : metrics.rejected).inc();
  }

  SynPoint best;
  bool found = false;
  if (on_b.valid && on_b.correlation >= p.threshold) {
    best = {p.a_start, on_b.position, p.window, on_b.correlation};
    found = true;
  }
  if (on_a.valid && on_a.correlation >= p.threshold &&
      (!found || on_a.correlation > best.correlation)) {
    best = {on_a.position, p.b_start, p.window, on_a.correlation};
    found = true;
  }
  (found ? metrics.coherency_pass : metrics.coherency_fail).inc();
  if (!found) {
    const double best_corr = std::max(on_b.valid ? on_b.correlation : -2.0,
                                      on_a.valid ? on_a.correlation : -2.0);
    metrics.outcomes.with("below_threshold").inc();
    recorder.record(obs::EventType::kSeekRejected, "syn.below_threshold",
                    best_corr, static_cast<double>(p.window), p.threshold);
    return std::nullopt;
  }
  metrics.outcomes.with("accepted").inc();
  recorder.record(obs::EventType::kSeekAccepted, "syn.seek", best.correlation,
                  static_cast<double>(p.window), p.threshold);
  return best;
}

std::vector<SynPoint> SynSeeker::find(const ContextTrajectory& a,
                                      const ContextTrajectory& b) const {
  return find(a, b, nullptr, nullptr);
}

std::vector<SynPoint> SynSeeker::find(const ContextTrajectory& a,
                                      const ContextTrajectory& b,
                                      const PackedContext* pack_a,
                                      const PackedContext* pack_b) const {
  // Plan every recency offset first, so a side the caller did not supply
  // is packed once — restricted to the rows any plan reads — and shared by
  // every offset and both slide passes.
  const std::size_t points = std::max<std::size_t>(1, config_.syn_points);
  std::vector<SeekPlan> plans(points);
  ChannelSelectScratch chan_scratch;
  for (std::size_t k = 0; k < points; ++k) {
    plan_into(a, b, k * config_.syn_segment_spacing_m, plans[k],
              chan_scratch);
  }
  PackedContext own_a;
  PackedContext own_b;
  pack_missing_sides(a, b, plans, pack_a, pack_b, own_a, own_b);
  std::vector<SynPoint> out;
  for (std::size_t k = 0; k < points; ++k) {
    const auto syn = seek_planned(a, b, k * config_.syn_segment_spacing_m,
                                  plans[k], pack_a, pack_b);
    if (syn.has_value()) out.push_back(*syn);
  }
  std::sort(out.begin(), out.end(), [](const SynPoint& x, const SynPoint& y) {
    return x.correlation > y.correlation;
  });
  return out;
}

}  // namespace rups::core
