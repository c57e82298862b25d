// rupsbench: the repository benchmark. One command runs one seeded workload
// through the public API of core, v2v, service and stream, checks the
// outputs, and prints every metric by name and unit. The last line of
// standard output is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics, span self times and the
// tracing overhead. See README.md in this directory.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace rupsbench {
namespace {

/// Bound of fresh_latency_p50_us in BENCHMARK.json.
constexpr double kLatencyP50Bound = 0.25;
/// The two halves of a run must agree on miss_rate within one percentage
/// point.
constexpr double kHalvesMissTolerance = 0.01;

struct LayerSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports (BENCHMARK.json per_layer).
/// A workload that does not exercise a layer reports it as 0.
constexpr LayerSpec kLayers[] = {
    {"core.estimate.p50_us", "us"},
    {"core.estimate.p99_us", "us"},
    {"core.syn.windows_scanned_per_estimate", "count"},
    {"core.syn.kernel_blocks_per_estimate", "count"},
    {"core.syncache.track_hit_ratio", "ratio"},
    {"core.syncache.full_searches_per_estimate", "count"},
    {"core.ingest.us_per_metre", "us"},
    {"core.context.append_us_per_metre", "us"},
    {"service.observe.us_per_metre", "us"},
    {"service.submit.us_per_request", "us"},
    {"service.drain.us_per_request", "us"},
    {"service.rejected_share", "ratio"},
    {"v2v.exchange.p50_us", "us"},
    {"v2v.exchange.p99_us", "us"},
    {"v2v.receiver.p50_us", "us"},
    {"v2v.bytes_per_exchange", "B"},
    {"v2v.failed_share", "ratio"},
    {"v2v.transmissions_per_packet", "count"},
    {"stream.beacon.bytes_per_update", "B"},
    {"stream.beacon.no_news_share", "ratio"},
    {"stream.beacon.rerequests", "count"},
    {"stream.beacon.resyncs", "count"},
    {"sim.gen.us_per_round", "us"},
    {"sim.gen.us_per_metre", "us"},
    {"trace.fresh_latency_p50_traced_us", "us"},
    {"trace.fresh_latency_p50_untraced_us", "us"},
    {"trace.overhead_ratio", "ratio"},
};

/// Span names whose self time per operation a traced run reports as
/// self.<name>.us_per_op.
constexpr const char* kSpans[] = {
    "convoy.query",    "convoy.fresh",        "core.ingest",
    "v2v.exchange",    "v2v.receiver",        "core.estimate",
    "service.round",   "service.begin_round", "service.observe",
    "service.submit",  "service.drain",       "stream.metre",
    "core.context.append", "stream.update",   "sim.gen",
};

#ifdef RUPS_OBS_DISABLED
/// Registry-derived per-layer metrics: absent under RUPS_OBS_DISABLED.
bool registry_derived(const std::string& name) {
  return name.rfind("core.syn", 0) == 0 ||
         name == "v2v.transmissions_per_packet";
}
#endif

/// Program-internal latency histograms printed as-is by a traced run.
constexpr const char* kProgramHistograms[] = {"v2v.exchange_us",
                                              "syncache.track_us",
                                              "fleet.batch_us"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rupsbench: %s\n"
               "usage: rupsbench --workload convoy_round|city_service|"
               "stream_urban --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (key == "--out-dir") {
        opt.out_dir = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

double median(std::vector<double> xs) { return rups::util::median(xs); }
double quantile(const std::vector<double>& xs, double q) {
  return rups::util::percentile(xs, q);
}

using Op = WorkloadResult::Op;

/// Fresh latencies of the untraced operations.
std::vector<double> untraced(std::span<const Op> ops) {
  std::vector<double> out;
  for (const Op& op : ops) {
    if (!op.traced) out.push_back(op.fresh_us);
  }
  return out;
}

struct MissCount {
  std::uint64_t attempted = 0;
  std::uint64_t missed = 0;
  [[nodiscard]] double rate() const {
    return attempted ? static_cast<double>(missed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

MissCount misses(std::span<const Op> ops) {
  MissCount m;
  for (const Op& op : ops) {
    m.attempted += op.attempted;
    m.missed += op.missed;
  }
  return m;
}

/// Timed operations are split into blocks of at least kBlockOps
/// consecutive operations. Latency percentiles and throughput are computed
/// per block and the median over blocks is reported, so a transient
/// slowdown of the shared host moves a few blocks rather than the result.
/// Every block's p99 has at least ten samples beyond it.
constexpr std::size_t kBlockOps = 1000;

std::vector<std::span<const Op>> blocks(const std::vector<Op>& ops) {
  const std::size_t n = ops.size();
  const std::size_t count = std::max<std::size_t>(1, n / kBlockOps);
  std::vector<std::span<const Op>> out;
  for (std::size_t b = 0; b < count; ++b) {
    const std::size_t lo = b * n / count, hi = (b + 1) * n / count;
    out.emplace_back(ops.data() + lo, hi - lo);
  }
  return out;
}

/// Median over blocks of a per-block statistic.
template <typename Stat>
double block_median(const std::vector<Op>& ops, Stat stat) {
  std::vector<double> per_block;
  for (const auto& block : blocks(ops)) per_block.push_back(stat(block));
  return median(per_block);
}

/// Half-width, in probes, of the window whose median gives an operation's
/// local host slowdown: a few milliseconds on stream_urban (one probe per
/// four updates), about a tenth of a second on convoy_round.
constexpr std::size_t kProbeWindow = 4;

/// The operations at the reference host's speed: each one's times divided by
/// the host's slowdown around it, the median of the 2 * kProbeWindow + 1
/// speed probes nearest to it over the reference probe time. The host's
/// speed state changes within a run (fast and slow periods of a few tenths
/// of a second to seconds), so a per-operation factor also keeps the slow
/// operations of a mixed block from setting its p99.
std::vector<Op> at_reference_speed(const std::vector<Op>& ops) {
  std::vector<std::size_t> probed;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].probe_us > 0) probed.push_back(i);
  }
  std::vector<Op> out = ops;
  if (probed.empty()) return out;
  std::vector<double> window;
  std::size_t next = 0;  // first probed operation at or after i
  for (std::size_t i = 0; i < ops.size(); ++i) {
    while (next < probed.size() && probed[next] < i) ++next;
    const std::size_t lo = next > kProbeWindow ? next - kProbeWindow : 0;
    const std::size_t hi = std::min(probed.size(), next + kProbeWindow + 1);
    window.clear();
    for (std::size_t j = lo; j < hi; ++j) {
      window.push_back(ops[probed[j]].probe_us);
    }
    const double slowdown = median(window) / kReferenceProbeUs;
    out[i].fresh_us /= slowdown;
    out[i].window_us /= slowdown;
  }
  return out;
}

/// Median setup time at the reference host's speed: each repetition's wall
/// time divided by the slowdown from the probe bursts before and after it.
double setup_at_reference_speed(const WorkloadResult& r) {
  if (r.setup_probe_us.empty()) return median(r.setup_s);
  // One equal burst before each repetition and one after the last.
  const std::size_t reps = r.setup_s.size();
  const std::size_t burst = r.setup_probe_us.size() / (reps + 1);
  std::vector<double> scaled;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto first = r.setup_probe_us.begin() +
                       static_cast<std::ptrdiff_t>(i * burst);
    const std::vector<double> around(
        first, first + static_cast<std::ptrdiff_t>(2 * burst));
    scaled.push_back(r.setup_s[i] / (median(around) / kReferenceProbeUs));
  }
  return median(scaled);
}

double estimates_per_s(std::span<const Op> ops) {
  double estimates = 0.0, window_us = 0.0;
  for (const Op& op : ops) {
    estimates += op.attempted - op.missed;
    window_us += op.window_us;
  }
  return window_us > 0 ? estimates / (window_us * 1e-6) : 0.0;
}

void line(const char* name, double value, const char* unit,
          const std::string& base = "") {
  std::printf("  %-40s %16.6f %-6s %s\n", name, value, unit, base.c_str());
}

/// Stationarity: the run's first and second halves must agree on
/// miss_rate, which is deterministic. Their fresh_latency_p50_us (at the
/// reference speed where the workload uses the probe) is printed beside it
/// but not enforced: city_service runs in wall time, whose swings with the
/// host a latency comparison cannot tell from drift of the workload.
void check_halves(WorkloadResult& r, const std::vector<Op>& scaled) {
  const std::span<const Op> all(scaled);
  const auto first = all.first(all.size() / 2);
  const auto second = all.subspan(all.size() / 2);
  const auto a = untraced(first);
  const auto b = untraced(second);
  if (a.empty() || b.empty()) return;
  const double pa = median(a), pb = median(b);
  const double ma = misses(first).rate(), mb = misses(second).rate();
  const bool beyond = std::abs(pb - pa) > kLatencyP50Bound * pa;
  std::printf(
      "halves: fresh_latency_p50_us %.3f | %.3f%s, miss_rate %.6f | %.6f\n",
      pa, pb, beyond ? " (beyond its bound)" : "", ma, mb);
  if (std::abs(mb - ma) > kHalvesMissTolerance) {
    r.failures.push_back("halves disagree on miss_rate");
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(const WorkloadResult& r, const std::vector<Metric>& metrics) {
  const MissCount m = misses(r.ops);
  std::string out = "{\"correct\": ";
  out += r.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(m.attempted);
  out += ", \"failed\": " + std::to_string(r.wrong);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// The timing metrics are taken at the reference host's speed (see
/// at_reference_speed) where the workload uses the speed probe, and are
/// wall times where it does not; the wall-time values are printed beside
/// them.
std::vector<Metric> end_to_end(const WorkloadResult& r,
                               const std::vector<Op>& scaled) {
  const auto lat = untraced(r.ops);
  const MissCount m = misses(r.ops);
  const std::size_t nblocks = blocks(r.ops).size();
  const auto p50 = [](auto b) { return median(untraced(b)); };
  const auto p99 = [](auto b) { return quantile(untraced(b), 0.99); };
  std::vector<Metric> e2e = {
      {"setup_s", setup_at_reference_speed(r), "s"},
      {"fresh_latency_p50_us", block_median(scaled, p50), "us"},
      {"fresh_latency_p99_us", block_median(scaled, p99), "us"},
      {"estimates_per_s", block_median(scaled, estimates_per_s), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::string setups = "(wall " + json_number(median(r.setup_s));
  setups += ", median of";
  for (double s : r.setup_s) setups += " " + json_number(s);
  setups += ")";
  const auto wall = [&](auto stat) {
    return std::string("(wall ") + json_number(block_median(r.ops, stat)) +
           ", ";
  };
  const std::string base = "n=" + std::to_string(lat.size()) + ", median of " +
                           std::to_string(nblocks) + " blocks)";
  std::vector<double> probes = r.setup_probe_us;
  for (const Op& op : r.ops) {
    if (op.probe_us > 0) probes.push_back(op.probe_us);
  }
  if (probes.empty()) {
    std::printf("speed probe: not used; the timing metrics are wall times\n");
  } else {
    std::printf(
        "speed probe: median %.3f us over %zu probes, reference %.3f us\n",
        median(probes), probes.size(), kReferenceProbeUs);
  }
  line("setup_s", e2e[0].value, "s", setups);
  line("fresh_latency_p50_us", e2e[1].value, "us", wall(p50) + base);
  line("fresh_latency_p99_us", e2e[2].value, "us", wall(p99) + base);
  line("estimates_per_s", e2e[3].value, "1/s",
       wall(estimates_per_s) + std::to_string(m.attempted - m.missed) +
           " estimates in " + std::to_string(nblocks) + " blocks)");
  line("peak_rss_mb", e2e[4].value, "MB");

  // Deterministic end-to-end metrics: identical for one seed and --seconds.
  line("miss_rate", m.rate(), "ratio",
       "(" + std::to_string(m.missed) + " of " + std::to_string(m.attempted) +
           " attempted; " + std::to_string(r.wrong) + " wrong)");
  if (r.bytes_per_estimate) {
    line("bytes_per_estimate", *r.bytes_per_estimate, "B");
  }
  if (!r.staleness_s.empty()) {
    line("staleness_p99_s", quantile(r.staleness_s, 0.99), "s",
         "(n=" + std::to_string(r.staleness_s.size()) + ")");
  }
  if (!r.errors_m.empty()) {
    line("error_p50_m", quantile(r.errors_m, 0.50), "m",
         "(n=" + std::to_string(r.errors_m.size()) + ")");
    line("error_p95_m", quantile(r.errors_m, 0.95), "m");
  }
  return e2e;
}

std::vector<Metric> per_layer(const WorkloadResult& r, const Tracer& tracer,
                              const std::string& trace_path) {
  std::vector<Metric> out;
  for (const LayerSpec& spec : kLayers) {
    const Metric* found = nullptr;
    for (const Metric& m : r.layer) {
      if (m.name == spec.name) found = &m;
    }
#ifdef RUPS_OBS_DISABLED
    if (registry_derived(spec.name)) {
      std::printf("  %-40s absent (RUPS_OBS_DISABLED)\n", spec.name);
      continue;
    }
#endif
    out.push_back(Metric{spec.name, found ? found->value : 0.0, spec.unit});
  }

  std::vector<double> traced_lat, untraced_lat;
  for (const Op& op : r.ops) {
    (op.traced ? traced_lat : untraced_lat).push_back(op.fresh_us);
  }
  const double pt = median(traced_lat), pu = median(untraced_lat);
  for (Metric& m : out) {
    if (m.name == "trace.fresh_latency_p50_traced_us") m.value = pt;
    if (m.name == "trace.fresh_latency_p50_untraced_us") m.value = pu;
    if (m.name == "trace.overhead_ratio") m.value = pu > 0 ? pt / pu : 0.0;
  }

  const double ops = static_cast<double>(tracer.traced_ops());
  for (const char* span : kSpans) {
    const double self = ops > 0 ? tracer.self_us(span) / ops : 0.0;
    out.push_back(
        Metric{std::string("self.") + span + ".us_per_op", self, "us"});
  }
  for (const Metric& m : out) line(m.name.c_str(), m.value, m.unit.c_str());

  const auto snap = rups::obs::Registry::global().snapshot();
  for (const char* name : kProgramHistograms) {
    if (const auto* h = snap.histogram(name)) {
      std::printf("  program-internal %s (whole process): n=%" PRIu64
                  " mean=%.3f p50=%.3f p99=%.3f us\n",
                  name, h->count, h->mean(),
                  rups::obs::histogram_quantile(*h, 0.50),
                  rups::obs::histogram_quantile(*h, 0.99));
    }
  }
  std::printf("  spans: %s (%" PRIu64 " traced operations)\n",
              trace_path.c_str(), tracer.traced_ops());
  return out;
}

int run(const Options& opt) {
  WorkloadFn fn = nullptr;
  if (opt.workload == "convoy_round") fn = run_convoy_round;
  if (opt.workload == "city_service") fn = run_city_service;
  if (opt.workload == "stream_urban") fn = run_stream_urban;
  if (fn == nullptr) usage(("unknown workload " + opt.workload).c_str());

  // Failed exchanges log a warning each; on a lossy channel that is
  // thousands of stderr lines, which would be timed with the exchange.
  rups::obs::Logger::global().set_min_level(rups::obs::LogLevel::kError);

  Tracer tracer(opt.trace);
  WorkloadResult r = fn(opt, tracer);

  std::printf("rupsbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  for (const auto& note : r.notes) std::printf("  %s\n", note.c_str());

  const std::vector<Op> scaled = at_reference_speed(r.ops);
  if (r.check_halves) check_halves(r, scaled);

  std::vector<Metric> metrics;
  if (opt.trace) {
    const std::string path = opt.out_dir + "/trace-" + opt.workload + ".json";
    tracer.write_json(path);
    metrics = per_layer(r, tracer, path);
  } else {
    metrics = end_to_end(r, scaled);
  }

  Digest counters;
#ifdef RUPS_OBS_DISABLED
  std::printf("work counters: absent (RUPS_OBS_DISABLED)\n");
#else
  std::printf("work counters (timed phase):\n");
  for (const auto& [name, value] : r.counters.moved()) {
    if (timing_dependent_counter(name)) continue;
    std::printf("  %-52s %" PRIu64 "\n", name.c_str(), value);
    for (char c : name) counters.add(static_cast<unsigned char>(c));
    counters.add(value);
  }
#endif
  std::printf("digest: estimates=%016" PRIx64 " counters=%016" PRIx64 "\n",
              r.estimates_digest.value(), counters.value());
  for (const auto& f : r.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  print_json(r, metrics);
  return 0;
}

}  // namespace
}  // namespace rupsbench

int main(int argc, char** argv) {
  try {
    return rupsbench::run(rupsbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rupsbench: %s\n", e.what());
    return 1;
  }
}
