#pragma once

// The eq. (2) scan kernel — the only one the SYN search runs. It scores
// windows of two int16 packs (packed.hpp) from the six integer moment sums
// (n, Σx, Σy, Σx², Σy², Σxy) per channel, which are EXACT. That buys two
// things a floating-point kernel cannot have:
//   * the reduction over window metres is freely reassociable — the
//     intrinsics vectorize ALONG the window (vpmaddwd dot products) or
//     across a block of consecutive lags, so each slide position is an
//     independent small-GEMM row C[b] = A · B[b..b+w) over the implicit
//     Toeplitz operand of the sliding pack;
//   * any batch shape, stride, chunking or ISA produces bit-identical
//     integer sums, so the kernel is deterministic by construction (the
//     only FP arithmetic is the per-channel epilogue, compiled with strict
//     flags).
// The cost is a bounded score perturbation from rounding onto the grid;
// DESIGN.md §15 derives the bound and tests/test_quant_kernel.cpp asserts
// it differentially against the scalar double reference
// trajectory_correlation().

#include <cstddef>

#include "core/correlation.hpp"
#include "core/packed.hpp"

namespace rups::core {

/// Lags scored per kernel block: one traversal of the checking window
/// scores this many consecutive sliding positions. Callers that chunk
/// scans should align chunk lengths to this so only the final chunk pays a
/// partial block.
inline constexpr std::size_t kLagBlock = 16;

/// Largest window (metres) the kernel accepts (int32 overflow bound for the
/// ±kQuantMax grid; RUPS windows are ~100).
inline constexpr std::size_t kQuantMaxWindowM = 2047;

/// Trajectory correlation (paper eq. (2)) between the fixed window
/// [fixed_start, fixed_start+window) of `fixed` and the sliding window
/// [pos, pos+window) of `sliding`, over fixed.rows/sliding.rows (entry kk
/// of each names the kk-th checking channel's row). Same windowing,
/// overlap and variance-guard semantics as trajectory_correlation(): the
/// overlap/min_channels decisions are exact integer counts, and the
/// variance guard compares DEQUANTIZED variances (vq · step²) against the
/// same 1e-2 dB² threshold. Requires window <= kQuantMaxWindowM.
[[nodiscard]] double quantized_correlation(
    const PackedView& fixed, std::size_t fixed_start,
    const PackedView& sliding, std::size_t pos, std::size_t window,
    const TrajectoryCorrelationConfig& config);

/// Batched scan: scores pos_lo + q*pos_stride_m for q in [0, pos_count)
/// into out_scores[q]. Every position is an independent exact-integer dot
/// along the window, so any batch/stride/chunk shape is bit-identical to
/// per-position quantized_correlation() calls — strided grids cost the
/// same per position as contiguous ones. Caller guarantees every window
/// fits: pos_lo + (pos_count-1)*pos_stride_m + window <= span metres.
void quantized_correlation_batch(const PackedView& fixed,
                                 std::size_t fixed_start,
                                 const PackedView& sliding,
                                 std::size_t pos_lo, std::size_t pos_count,
                                 std::size_t window,
                                 const TrajectoryCorrelationConfig& config,
                                 double* out_scores,
                                 std::size_t pos_stride_m = 1);

/// One fixed/sliding operand pair of a slide pass. SynSeeker's scan core,
/// SynCache's re-verification band and the pool chunks all consume this.
struct ScanPair {
  PackedView fixed{};
  std::size_t fixed_start = 0;
  PackedView sliding{};
};

}  // namespace rups::core
