#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "v2v/exchange.hpp"

namespace rups::v2v {

/// Receiver-side view of one neighbour's trajectory, maintained across
/// exchanges: splices delivered/degraded updates onto a cached copy, tracks
/// the sync watermark, and falls back to a full transfer when a failed
/// exchange leaves a gap. Shared by the campaign driver (src/sim) and the
/// streaming BeaconSession (src/stream).
struct V2vReceiver {
  core::ContextTrajectory received;
  std::uint64_t synced_metre = 0;
  /// False until a usable full context arrived (or after a gap forced a
  /// re-transfer); drives the full-vs-tail decision.
  bool have_full = false;

  V2vReceiver(std::size_t channels, std::size_t capacity_m);

  /// Fold one exchange outcome into the cached copy. `full_exchange` says
  /// whether the sender encoded its whole context (vs a tail update).
  /// Returns true when the cached copy gained metres (the window END
  /// advanced — at capacity the size stays constant while metres arrive).
  /// Gap bookkeeping is idempotent: a degraded outcome whose salvaged
  /// region does not extend past the cache keeps both the cache and
  /// `synced_metre`, so back-to-back kDegraded exchanges re-request from
  /// the original watermark instead of regressing it.
  bool ingest(const v2v::ExchangeResult& result, bool full_exchange);
};

}  // namespace rups::v2v
