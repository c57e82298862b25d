#pragma once

// Shared pieces of the repository benchmark: run options, the in-memory
// span tracer, registry counter deltas, and the per-workload result that
// main.cpp turns into the report.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.hpp"

namespace rupsbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Directory for the trace file of a traced run.
  std::string out_dir = ".";
};

/// Microseconds on the steady clock (arbitrary epoch).
[[nodiscard]] double now_us() noexcept;

/// Runs a fixed compute loop over a small cached array and returns its
/// wall time (us). The shared host's speed swings by up to ~1.6x between
/// fast and slow periods (a neighbour on the same core, not the clock:
/// register-only code slows by ~15% only), and the probe follows the swings
/// as the workloads do, so the timing metrics are scaled by the probe times
/// measured beside them. See README.md.
[[nodiscard]] double probe_us() noexcept;

/// Probe time that defines the reference speed (us). The reference host
/// measures 18.5-19 us in its fast periods and 24-27 us in its slow ones.
inline constexpr double kReferenceProbeUs = 20.0;

/// Spans recorded by the benchmark's own code around each call into a
/// layer. Spans live in memory and are written out once, at exit. In a
/// traced run every other operation is traced, so the untraced ones in the
/// same run give the tracing overhead.
class Tracer {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Start the next operation (a query, a round or a metre). Returns
  /// whether its spans are recorded.
  bool begin_op();
  [[nodiscard]] bool active() const noexcept { return active_; }

  std::size_t open(const char* name);
  /// Close a span opened by open(); returns its duration (us).
  double close(std::size_t index);

  /// Total self time (span time not covered by child spans) of the spans
  /// named `name` (us).
  [[nodiscard]] double self_us(std::string_view name) const;
  [[nodiscard]] std::uint64_t traced_ops() const noexcept {
    return traced_ops_;
  }
  /// Chrome trace_event JSON array ("ph":"X"); ids in args.
  void write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    std::size_t parent;
    std::uint64_t op;
  };

  bool enabled_;
  bool active_ = false;
  std::uint64_t ops_ = 0;
  std::uint64_t traced_ops_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; records nothing while the tracer is inactive.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer),
        index_(tracer.active() ? tracer.open(name) : Tracer::kNone) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double end() {
    const double d = index_ == Tracer::kNone ? 0.0 : tracer_.close(index_);
    index_ = Tracer::kNone;
    return d;
  }

 private:
  Tracer& tracer_;
  std::size_t index_;
};

/// Counter deltas of the process-wide obs::Registry between two points.
/// Under RUPS_OBS_DISABLED every lookup is absent (nullopt), never zero.
class CounterDelta {
 public:
  void begin();
  void end();
  [[nodiscard]] std::optional<std::uint64_t> get(const std::string& name) const;
  /// Every counter that moved, name-sorted (the work-counter digest input).
  [[nodiscard]] const std::map<std::string, std::uint64_t>& moved() const {
    return moved_;
  }

 private:
  rups::obs::MetricsSnapshot before_;
  std::map<std::string, std::uint64_t> moved_;
};

/// Counters whose value depends on wall time rather than on the work done
/// (log rate limiting), left out of the determinism digest.
[[nodiscard]] bool timing_dependent_counter(const std::string& name);

/// FNV-1a over a stream of 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) noexcept;
  void add_double(double value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run measured. main.cpp derives the end-to-end
/// metrics from the raw samples; per-layer metrics come ready-made.
struct WorkloadResult {
  /// Wall time of each set-up repetition (s).
  std::vector<double> setup_s;
  /// Whether the timing metrics are scaled by the speed probe. False where
  /// the probe does not follow the workload's wall time; those metrics are
  /// plain wall times.
  bool speed_probe = true;
  /// Speed probes run around the set-up repetitions (us).
  std::vector<double> setup_probe_us;
  /// One timed operation (a query, a round or a metre).
  struct Op {
    /// Wall time from handing over the newest context to receiving the
    /// fresh estimate(s) (us).
    double fresh_us = 0.0;
    /// The whole timed window, ingest included, generator excluded (us).
    double window_us = 0.0;
    std::uint32_t attempted = 0;  ///< estimates attempted
    std::uint32_t missed = 0;     ///< attempts that yielded no good estimate
    bool traced = false;
    /// Speed probe run right after the operation, outside its window (us).
    double probe_us = 0.0;
  };
  std::vector<Op> ops;
  /// Estimates that are non-finite or (where truth is exact) wrong.
  std::uint64_t wrong = 0;
  std::vector<double> errors_m;     ///< |estimate - truth| (physics only)
  std::vector<double> staleness_s;  ///< sim-s since each neighbour's estimate
  /// Wire bytes over the whole run, initial syncs included, per estimate.
  std::optional<double> bytes_per_estimate;
  Digest estimates_digest;
  CounterDelta counters;
  /// Stationarity: operations are split into halves and compared.
  bool check_halves = false;
  std::vector<Metric> layer;          ///< per-layer metrics of this workload
  std::vector<std::string> notes;     ///< extra human-readable lines
  std::vector<std::string> failures;  ///< failed checks
};

using WorkloadFn = WorkloadResult (*)(const Options&, Tracer&);

[[nodiscard]] WorkloadResult run_convoy_round(const Options& opt,
                                              Tracer& tracer);
[[nodiscard]] WorkloadResult run_city_service(const Options& opt,
                                              Tracer& tracer);
[[nodiscard]] WorkloadResult run_stream_urban(const Options& opt,
                                              Tracer& tracer);

/// Peak resident set size of this process (MB).
[[nodiscard]] double peak_rss_mb();

}  // namespace rupsbench
