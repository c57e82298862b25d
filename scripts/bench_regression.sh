#!/usr/bin/env bash
# Bench regression gate: run the quick-mode benches and diff each result
# against the committed baseline with obs_diff. Every pass runs even when
# an earlier one fails; each prints its verdict, and the script exits
# non-zero at the end if any pass failed. Nine passes with very different
# tolerances:
#
#  1. bench_comm_cost is fixed-size and seeded, so its metric COUNTERS are
#     deterministic — diffed tightly (2%). Any drift means the byte path,
#     framing or cost model actually changed.
#  2. bench_compute_cost timings are machine- and load-dependent (this
#     container has 1 CPU and ±10-25% noise), so real (wall) times are
#     diffed one-sided with a 100% tolerance: only a >2x slowdown fails.
#     obs_diff reads wall time, because the pooled BM_SynSearch_ThreadPool/*
#     scans run on worker threads and their cpu time counts only the
#     dispatching thread.
#     Its counters are iteration-adaptive (google-benchmark picks iteration
#     counts) and are NOT compared.
#  3. bench_fleet_scaling replays a fixed synthetic fleet (rounds and
#     vehicle counts are hard-coded, RUPS_BENCH_SCALE is ignored by its
#     sweep), so its cache/batch COUNTERS are deterministic — diffed at 2%
#     like the comm pass. The binary itself also exits non-zero when the
#     warm-vs-cold results diverge or the cache stops hitting.
#  4. bench_syn_kernel: sweep-shape and paper-point accuracy COUNTERS are
#     pure functions of the registered grid and seeded inputs — diffed at
#     2% (catches accidental sweep edits). The paper-point per-position
#     timing GAUGES are machine-dependent, so they are diffed one-sided at
#     100%: only a >2x slowdown fails. The speedup gauge is informational
#     (its floor is enforced by the kernel_speedup_gate ctest) and
#     improvements must not fail the gate, so it is excluded here.
#  5. bench_fault_sweep runs a fixed seeded campaign through every fault
#     profile (RUPS_BENCH_SCALE is ignored), so its exchange/delivery
#     COUNTERS are deterministic — diffed at 2%. The per-profile error
#     gauges come from the same seeded simulation and are diffed at 5%
#     (they drift only if the channel, protocol or estimator changed).
#  6. bench_telemetry --report-only replays the warm N=16 fleet campaign
#     (fixed rounds, seeded, serial — deterministic) and emits the
#     snapshot + windowed-series telemetry_metrics section. Counters,
#     gauges (incl. labeled family cells and per-neighbour staleness) and
#     the sim-time series columns are diffed tightly; wall-clock series
#     quantile columns (#p50/#p95/#p99) one-sided and loose, like the
#     other timing passes. log.suppressed (wall-clock rate limiter) and
#     health.latency_p99_us (wall-clock rolling quantile) are excluded.
#  7. bench_profile --report-only replays the same warm campaign driven
#     round by round with the allocation census on: the span-attributed
#     alloc.count{stage}/alloc.bytes{stage} cells and the per-round
#     ratchet gauges are deterministic on the serial driving thread, so
#     gauges are diffed at 10% and counters at 2%. Wall-clock sampler
#     counters (profiler.ticks/profiler.samples) and the usual wall-clock
#     metrics are excluded.
#  8. bench_service_scaling --report-only replays a small seeded city
#     fleet through the sharded matcher service (fixed rounds, serial
#     drain — deterministic): admission/queue/estimate counters are
#     diffed at 2% and gauges at 5%. Wall-clock-fed values
#     (health.latency_p99_us, latency-rule health.alerts,
#     log.suppressed) are excluded; the scaling/zero-alloc floors are
#     enforced by the service_scaling_gate ctest, not here.
#  9. bench_stream replays the seeded per-metre streaming campaign and
#     its round baseline through every profile (fixed size, serial,
#     RUPS_BENCH_SCALE ignored): stream.* protocol counters and the
#     per-profile bytes/accuracy/staleness gauges are exact functions of
#     the seeded drive — counters diffed at 2%, gauges at 5%. The
#     wall-clock stream.update_us histogram is excluded
#     (--skip-histograms); the efficiency floors themselves are enforced
#     by the stream_efficiency_gate ctest, not here.
#
# Usage:
#   bench_regression.sh <bench_compute_cost> <bench_comm_cost> \
#                       <bench_fleet_scaling> <bench_syn_kernel> \
#                       <bench_fault_sweep> <bench_telemetry> \
#                       <bench_profile> <bench_service_scaling> \
#                       <bench_stream> <obs_diff> <baseline.json> <workdir>
set -u

if [[ $# -ne 12 ]]; then
  echo "usage: bench_regression.sh <bench_compute_cost> <bench_comm_cost>" \
       "<bench_fleet_scaling> <bench_syn_kernel> <bench_fault_sweep>" \
       "<bench_telemetry> <bench_profile> <bench_service_scaling>" \
       "<bench_stream> <obs_diff> <baseline.json> <workdir>" >&2
  exit 2
fi

compute_bin=$(realpath "$1")
comm_bin=$(realpath "$2")
fleet_bin=$(realpath "$3")
kernel_bin=$(realpath "$4")
fault_bin=$(realpath "$5")
telemetry_bin=$(realpath "$6")
profile_bin=$(realpath "$7")
service_bin=$(realpath "$8")
stream_bin=$(realpath "$9")
obs_diff_bin=$(realpath "${10}")
baseline=$(realpath "${11}")
workdir="${12}"

mkdir -p "$workdir"
workdir=$(realpath "$workdir")

# Runs one pass in a subshell with errexit, so a failing bench or diff ends
# that pass only; the verdict is recorded and the next pass still runs.
# (Not `if (...)`: errexit is ignored inside an if condition.)
failed=()
run_pass() {
  local title="$1"
  shift
  echo ""
  echo "== pass $title =="
  (set -e; "$@")
  if [[ $? -eq 0 ]]; then
    echo "-- pass $title: PASS"
  else
    echo "-- pass $title: FAIL"
    failed+=("$title")
  fi
}

pass_1() {
  comm_dir="$workdir/comm"
  rm -rf "$comm_dir"
  mkdir -p "$comm_dir"
  (cd "$comm_dir" && "$comm_bin" > bench_comm_cost.log)
  "$obs_diff_bin" --section comm_metrics \
    --counter-tol 0.02 --skip-histograms --skip-benchmarks \
    "$baseline" "$comm_dir/bench_out/comm_cost_metrics.json"
}
run_pass "1/9: comm-cost counters (deterministic, tight)" pass_1

pass_2() {
  compute_dir="$workdir/compute"
  rm -rf "$compute_dir"
  mkdir -p "$compute_dir"
  (cd "$compute_dir" && RUPS_BENCH_SCALE=0.3 "$compute_bin" \
      --benchmark_min_time=0.05 \
      --benchmark_out="$compute_dir/compute_bench.json" \
      --benchmark_out_format=json > bench_compute_cost.log)
  "$obs_diff_bin" \
    --skip-counters --skip-gauges --skip-histograms --bench-tol 1.0 \
    "$baseline" "$compute_dir/compute_bench.json"
}
run_pass "2/9: compute-cost timings (noisy, one-sided 100%)" pass_2

pass_3() {
  fleet_dir="$workdir/fleet"
  rm -rf "$fleet_dir"
  mkdir -p "$fleet_dir"
  (cd "$fleet_dir" && "$fleet_bin" > bench_fleet_scaling.log)
  "$obs_diff_bin" --section fleet_metrics \
    --counter-tol 0.02 --skip-histograms --skip-benchmarks \
    "$baseline" "$fleet_dir/bench_out/fleet_scaling_metrics.json"
}
run_pass "3/9: fleet cache/batch counters (deterministic, tight)" pass_3

pass_4() {
  kernel_dir="$workdir/kernel"
  rm -rf "$kernel_dir"
  mkdir -p "$kernel_dir"
  (cd "$kernel_dir" && RUPS_BENCH_SCALE=0.3 "$kernel_bin" \
      --benchmark_min_time=0.05 \
      --benchmark_filter='w:100/k:45' > bench_syn_kernel.log)
  "$obs_diff_bin" --section kernel_metrics \
    --counter-tol 0.02 --gauge-tol 1.0 --gauge-one-sided \
    --ignore kernel.paper.speedup \
    --skip-histograms --skip-benchmarks \
    "$baseline" "$kernel_dir/bench_out/syn_kernel_metrics.json"
}
run_pass "4/9: kernel sweep counters (tight) + timings (one-sided)" pass_4

pass_5() {
  fault_dir="$workdir/fault"
  rm -rf "$fault_dir"
  mkdir -p "$fault_dir"
  (cd "$fault_dir" && "$fault_bin" > bench_fault_sweep.log 2> /dev/null)
  "$obs_diff_bin" --section fault_metrics \
    --counter-tol 0.02 --gauge-tol 0.05 \
    --skip-histograms --skip-benchmarks \
    "$baseline" "$fault_dir/bench_out/fault_sweep_metrics.json"
}
run_pass "5/9: fault-sweep delivery counters + error gauges" pass_5

pass_6() {
  telemetry_dir="$workdir/telemetry"
  rm -rf "$telemetry_dir"
  mkdir -p "$telemetry_dir"
  (cd "$telemetry_dir" && "$telemetry_bin" --report-only > bench_telemetry.log)
  "$obs_diff_bin" --section telemetry_metrics \
    --counter-tol 0.02 --gauge-tol 0.05 \
    --series-tol 0.05 --series-timing-tol 4.0 \
    --ignore log.suppressed --ignore health.latency_p99_us \
    --skip-histograms --skip-benchmarks \
    "$baseline" "$telemetry_dir/bench_out/telemetry_metrics.json"
}
run_pass "6/9: telemetry families + windowed series (deterministic)" pass_6

pass_7() {
  profile_dir="$workdir/profile"
  rm -rf "$profile_dir"
  mkdir -p "$profile_dir"
  (cd "$profile_dir" && "$profile_bin" --report-only > bench_profile.log)
  "$obs_diff_bin" --section profile_metrics \
    --counter-tol 0.02 --gauge-tol 0.10 \
    --ignore log.suppressed --ignore health.latency_p99_us \
    --ignore profiler.ticks --ignore profiler.samples \
    --skip-histograms --skip-benchmarks \
    "$baseline" "$profile_dir/bench_out/profile_metrics.json"
}
run_pass "7/9: allocation census + ratchet gauges (deterministic)" pass_7

pass_8() {
  service_dir="$workdir/service"
  rm -rf "$service_dir"
  mkdir -p "$service_dir"
  (cd "$service_dir" && "$service_bin" --report-only > bench_service_scaling.log)
  "$obs_diff_bin" --section service_metrics \
    --counter-tol 0.02 --gauge-tol 0.05 \
    --ignore log.suppressed --ignore health.latency_p99_us \
    --ignore health.alerts \
    --skip-histograms --skip-benchmarks \
    "$baseline" "$service_dir/bench_out/service_scaling_metrics.json"
}
run_pass "8/9: sharded service admission/queue counters (tight)" pass_8

pass_9() {
  stream_dir="$workdir/stream"
  rm -rf "$stream_dir"
  mkdir -p "$stream_dir"
  (cd "$stream_dir" && "$stream_bin" > bench_stream.log)
  "$obs_diff_bin" --section stream_metrics \
    --counter-tol 0.02 --gauge-tol 0.05 \
    --ignore log.suppressed --ignore health.latency_p99_us \
    --skip-histograms --skip-benchmarks \
    "$baseline" "$stream_dir/bench_out/stream_metrics.json"
}
run_pass "9/9: streaming protocol counters + efficiency gauges" pass_9

echo ""
if [[ ${#failed[@]} -ne 0 ]]; then
  echo "bench regression gate: FAIL (${#failed[@]} of 9 passes failed)"
  for title in "${failed[@]}"; do echo "  failed: $title"; done
  exit 1
fi
echo "bench regression gate: PASS"
