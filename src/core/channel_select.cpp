#include "core/channel_select.hpp"

#include <algorithm>

namespace rups::core {

void select_top_channels_into(const ContextTrajectory& trajectory,
                              std::size_t window_start, std::size_t window_m,
                              std::size_t k, ChannelSelectScratch& scratch,
                              std::vector<std::size_t>& out,
                              double min_coverage) {
  out.clear();
  if (trajectory.empty() || window_m == 0 ||
      window_start >= trajectory.size()) {
    return;
  }
  const std::size_t end =
      std::min(window_start + window_m, trajectory.size());
  const std::size_t len = end - window_start;
  const std::size_t channels = trajectory.channels();

  // Accumulate metre by metre (each power vector is contiguous); every
  // channel's sum still runs over the window metres in order.
  std::vector<ChannelRank>& ranks = scratch.ranks;
  std::vector<std::size_t>& usable = scratch.usable;
  ranks.assign(channels, ChannelRank{0, 0.0});
  usable.assign(channels, 0);
  for (std::size_t i = window_start; i < end; ++i) {
    const PowerVector& pv = trajectory.power(i);
    for (std::size_t c = 0; c < channels; ++c) {
      if (pv.usable(c)) {
        ranks[c].mean += pv.at(c);
        ++usable[c];
      }
    }
  }
  // Keep the coverage-qualified channels, in channel order, as means.
  std::size_t kept = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    const std::size_t n = usable[c];
    if (static_cast<double>(n) < min_coverage * static_cast<double>(len)) {
      continue;
    }
    ranks[kept++] = {c, ranks[c].mean / static_cast<double>(n)};
  }
  ranks.resize(kept);
  const std::size_t take = std::min(k, ranks.size());
  std::partial_sort(ranks.begin(), ranks.begin() + static_cast<long>(take),
                    ranks.end(), [](const ChannelRank& a, const ChannelRank& b) {
                      if (a.mean != b.mean) return a.mean > b.mean;
                      return a.channel < b.channel;
                    });
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(ranks[i].channel);
  std::sort(out.begin(), out.end());
}

std::vector<std::size_t> select_top_channels(
    const ContextTrajectory& trajectory, std::size_t window_start,
    std::size_t window_m, std::size_t k, double min_coverage) {
  ChannelSelectScratch scratch;
  std::vector<std::size_t> out;
  select_top_channels_into(trajectory, window_start, window_m, k, scratch, out,
                           min_coverage);
  return out;
}

std::vector<std::size_t> select_top_channels_recent(
    const ContextTrajectory& trajectory, std::size_t window_m, std::size_t k,
    double min_coverage) {
  if (trajectory.size() < window_m) {
    return select_top_channels(trajectory, 0, trajectory.size(), k,
                               min_coverage);
  }
  return select_top_channels(trajectory, trajectory.size() - window_m,
                             window_m, k, min_coverage);
}

}  // namespace rups::core
