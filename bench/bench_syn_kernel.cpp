// Kernel-level microbenchmark of the int16 correlation kernel (Sec. V-A
// inner loop): one full sliding scan of a 1000 m context, scored through
// quantized_correlation_batch, swept over window length w ∈ {50, 100, 200},
// channel count k ∈ {16, 45, 128} and masked-sample fraction
// ∈ {0, 0.1, 0.3}. The paper point m=1000 / w=100 / k=45 is additionally
// timed outside google-benchmark against the scalar double reference
// trajectory_correlation(), recording ns/position, the kernel-vs-reference
// speedup, the max |score delta| and argmax agreement as deterministic
// gauges/counters. `--selfcheck` runs only that measurement and exits
// non-zero below a 4x speedup floor, above DESIGN §15's score bound, on an
// argmax mismatch, or when packs built at query time from the scanned rows
// alone (PackedContext::pack_rows, as a seek handed no packs builds them)
// score differently from the prebuilt full packs (the kernel_speedup_gate
// and quantized_speedup_gate ctests).
//
// The emitted bench_out/syn_kernel_metrics.json becomes the baseline's
// kernel_metrics section: sweep-shape and accuracy counters are exactly
// reproducible (diffed at 2%), per-position timing gauges are
// machine-dependent (diffed one-sided — only slowdowns fail).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "core/correlation.hpp"
#include "core/packed.hpp"
#include "core/quant.hpp"
#include "util/hash_noise.hpp"
#include "util/rng.hpp"

namespace {

using namespace rups;

constexpr std::size_t kContextMetres = 1000;
constexpr std::size_t kPaperWindow = 100;
constexpr std::size_t kPaperChannels = 45;
constexpr int kPaperMaskPct = 10;
/// The int16 batch scan must beat the scalar double reference by this
/// factor at the paper point — the product of the two floors this gate
/// replaces (lag-batched float over per-position float, 2x; int16 over
/// float batch, 2x).
constexpr double kSelfcheckFloor = 4.0;
/// DESIGN §15 score bound (same constant as the differential tests).
constexpr double kMaxScoreErr = 2e-2;

core::ContextTrajectory synth(std::size_t metres, std::size_t channels,
                              std::int64_t road_offset, int mask_pct,
                              std::uint64_t seed) {
  const util::HashNoise chan_noise(0xC0FFEE);
  core::ContextTrajectory t(channels, metres);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < metres; ++i) {
    core::PowerVector pv(channels);
    for (std::size_t c = 0; c < channels; ++c) {
      if (rng.uniform() * 100.0 < static_cast<double>(mask_pct)) continue;
      const util::LatticeField1D f(util::hash_combine(17, c), 8.0, 2);
      pv.set(c, static_cast<float>(
                    -95.0 +
                    40.0 * chan_noise.uniform(static_cast<std::int64_t>(c)) +
                    6.0 * f.value(static_cast<double>(
                              road_offset + static_cast<std::int64_t>(i))) +
                    rng.gaussian(0, 0.5)));
    }
    t.append(core::GeoSample{}, std::move(pv));
  }
  return t;
}

/// One prepared scan: a fixed checking window and a full sliding context,
/// each packed once, with identity row maps — exactly what SynSeeker::slide
/// streams. The fixed window sits 50 road-metres into the sliding context,
/// so the scan crosses a genuine correlation peak like a real seek does.
struct Scan {
  Scan(std::size_t window_m, std::size_t channels, int mask_pct)
      : fixed_t(synth(window_m, channels, 50, mask_pct, 7)),
        slide_t(synth(kContextMetres, channels, 0, mask_pct, 8)),
        rows(channels),
        window(window_m),
        positions(kContextMetres - window_m + 1) {
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    fixed_pack.sync(fixed_t);
    slide_pack.sync(slide_t);
  }

  [[nodiscard]] core::PackedView fixed() const {
    return {fixed_pack.span(), rows};
  }
  [[nodiscard]] core::PackedView sliding() const {
    return {slide_pack.span(), rows};
  }

  core::ContextTrajectory fixed_t;
  core::ContextTrajectory slide_t;
  core::PackedContext fixed_pack;
  core::PackedContext slide_pack;
  std::vector<std::size_t> rows;
  std::size_t window = 0;
  std::size_t positions = 0;
  core::TrajectoryCorrelationConfig config{};
};

void scan_int16(const Scan& s, double* scores) {
  core::quantized_correlation_batch(s.fixed(), 0, s.sliding(), 0,
                                    s.positions, s.window, s.config, scores);
}

/// True when packs of the scanned rows alone, built from the trajectories
/// as a seek that was handed no packs builds them, score exactly as the
/// prebuilt full packs do.
bool row_packs_score_identically(const Scan& s) {
  core::PackedContext fixed_pack;
  core::PackedContext slide_pack;
  fixed_pack.pack_rows(s.fixed_t, s.rows);
  slide_pack.pack_rows(s.slide_t, s.rows);
  std::vector<double> prebuilt(s.positions), got(s.positions);
  scan_int16(s, prebuilt.data());
  core::quantized_correlation_batch(
      core::PackedView{fixed_pack.span(), s.rows}, 0,
      core::PackedView{slide_pack.span(), s.rows}, 0, s.positions, s.window,
      s.config, got.data());
  return std::memcmp(prebuilt.data(), got.data(),
                     got.size() * sizeof(double)) == 0;
}

void scan_reference(const Scan& s, double* scores) {
  for (std::size_t q = 0; q < s.positions; ++q) {
    scores[q] = core::trajectory_correlation(
        {&s.fixed_t, 0}, {&s.slide_t, q}, s.window, s.rows, s.config);
  }
}

void BM_KernelScan(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  const auto channels = static_cast<std::size_t>(state.range(1));
  const auto mask_pct = static_cast<int>(state.range(2));
  const Scan s(window, channels, mask_pct);
  std::vector<double> scores(s.positions, 0.0);
  for (auto _ : state) {
    scan_int16(s, scores.data());
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.positions));
}
BENCHMARK(BM_KernelScan)
    ->ArgNames({"w", "k", "maskpct"})
    ->ArgsProduct({{50, 100, 200}, {16, 45, 128}, {0, 10, 30}});

/// Wall-time of `reps` full scans through `scan`, in ns/position.
template <typename ScanFn>
double measure_ns_per_position(const Scan& s, ScanFn scan, std::size_t reps) {
  std::vector<double> scores(s.positions, 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    scan(s, scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return seconds * 1e9 / static_cast<double>(reps) /
         static_cast<double>(s.positions);
}

std::size_t argmax_of(const std::vector<double>& scores) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return best;
}

struct PaperPoint {
  double speedup = 0.0;
  double maxerr = 0.0;
  bool argmax_ok = false;
};

/// Paper-point (m=1000, w=100, k=45, 10% masked) int16-vs-reference
/// figure. Timing gauges (kernel.paper.*_ns_per_pos, kernel.paper.speedup)
/// are machine-dependent; the accuracy counters
/// (kernel.paper.int16_maxerr_u6 = max |score delta| in micro-units,
/// kernel.paper.argmax_match, kernel.paper.positions) are exact functions
/// of the seeded inputs, so the regression baseline pins them tightly.
PaperPoint record_paper_point() {
  const Scan s(kPaperWindow, kPaperChannels, kPaperMaskPct);
  std::vector<double> ref(s.positions), got(s.positions);
  scan_reference(s, ref.data());
  scan_int16(s, got.data());
  double maxerr = 0.0;
  for (std::size_t i = 0; i < s.positions; ++i) {
    maxerr = std::max(maxerr, std::abs(ref[i] - got[i]));
  }
  const bool argmax_ok = argmax_of(ref) == argmax_of(got);

  // The reference is ~50x slower; a tenth of the kernel's repetitions keeps
  // both timings well above the clock resolution. The first int16 pass
  // above kept first-touch and ifunc resolution out of the timing.
  const std::size_t reps = bench::scaled(30);
  const double int16_ns = measure_ns_per_position(s, scan_int16, reps);
  const double ref_ns = measure_ns_per_position(
      s, scan_reference, std::max<std::size_t>(1, reps / 10));
  const double speedup = ref_ns / int16_ns;

  auto& reg = obs::Registry::global();
  reg.gauge("kernel.paper.reference_ns_per_pos").set(ref_ns);
  reg.gauge("kernel.paper.int16_ns_per_pos").set(int16_ns);
  reg.gauge("kernel.paper.speedup").set(speedup);
  reg.counter("kernel.paper.positions").inc(s.positions);
  reg.counter("kernel.paper.int16_maxerr_u6")
      .inc(static_cast<std::uint64_t>(std::lround(maxerr * 1e6)));
  reg.counter("kernel.paper.argmax_match").inc(argmax_ok ? 1 : 0);
  std::printf(
      "  paper point m=%zu w=%zu k=%zu mask=%d%%: scalar reference %.0f "
      "ns/pos, int16 batch %.0f ns/pos, speedup %.2fx, maxerr %.3e, argmax "
      "%s\n",
      kContextMetres, kPaperWindow, kPaperChannels, kPaperMaskPct, ref_ns,
      int16_ns, speedup, maxerr, argmax_ok ? "match" : "MISMATCH");
  return {speedup, maxerr, argmax_ok};
}

/// Sweep-shape counters: functions of the registered benchmark grid only,
/// so the committed baseline pins them exactly (a 2% counter diff catches
/// accidental sweep edits; timings never reach these).
void record_sweep_counters() {
  std::uint64_t configs = 0;
  std::uint64_t positions = 0;
  std::uint64_t blocks = 0;
  for (const std::size_t w : {50, 100, 200}) {
    const std::uint64_t pos = kContextMetres - w + 1;
    for (int axis = 0; axis < 3 * 3; ++axis) {  // k x mask
      ++configs;
      positions += pos;
      blocks += (pos + core::kLagBlock - 1) / core::kLagBlock;
    }
  }
  auto& reg = obs::Registry::global();
  reg.counter("kernel.sweep_configs").inc(configs);
  reg.counter("kernel.sweep_positions").inc(positions);
  reg.counter("kernel.sweep_lane_blocks").inc(blocks);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--selfcheck") == 0) {
    // ctest kernel gate: the int16 batch scan must beat the scalar double
    // reference by at least kSelfcheckFloor at the paper point, with the
    // score error inside the differential bound, the argmax unchanged and
    // query-time row packs scoring bit-identically.
    const PaperPoint p = record_paper_point();
    const bool row_packs =
        row_packs_score_identically(Scan(kPaperWindow, kPaperChannels,
                                         kPaperMaskPct));
    const bool fast = p.speedup >= kSelfcheckFloor;
    const bool accurate = p.maxerr <= kMaxScoreErr && p.argmax_ok && row_packs;
    std::printf(
        "kernel selfcheck (floor %.1fx over the scalar reference, maxerr <= "
        "%.0e, argmax match, row packs bit-identical: %s): %s%s\n",
        kSelfcheckFloor, kMaxScoreErr, row_packs ? "yes" : "NO",
        fast && accurate ? "PASS" : "FAIL", accurate ? "" : " (accuracy)");
    return fast && accurate ? 0 : 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  record_sweep_counters();
  record_paper_point();
  const auto path = rups::bench::write_metrics_json("syn_kernel");
  rups::bench::print_stage_breakdown();
  std::printf("  metrics json: %s\n", path.c_str());
  return 0;
}
