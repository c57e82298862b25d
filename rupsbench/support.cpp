#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "bench.hpp"
#include "obs/metrics.hpp"

namespace rupsbench {

double now_us() noexcept {
  using namespace std::chrono;
  return duration<double, std::micro>(steady_clock::now().time_since_epoch())
      .count();
}

namespace {
// Volatile so that the compiler can neither fold the probe's loop nor drop
// its result.
volatile float probe_weight = 1.0F;
volatile float probe_sink = 0.0F;

/// One pass of the probe: integer hash chains feeding a floating-point
/// multiply-add over an L1-resident array.
float probe_pass(const std::vector<float>& data) {
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  float acc = 0.0F;
  for (const float x : data) {
    a ^= a << 13;
    a ^= a >> 7;
    b ^= b << 13;
    b ^= b >> 7;
    c += a * b;
    d ^= c >> 3;
    acc += x * static_cast<float>(d & 15U);
  }
  return acc;
}
}  // namespace

double probe_us() noexcept {
  // 32 KiB: two thirds of the L1 data cache. An untimed pass first brings
  // it back into L1, so what the workload left in the caches does not
  // count; the timed pass then slows down as the core's shared resources
  // do.
  static const std::vector<float> data(8192, float{probe_weight});
  float acc = probe_pass(data);
  const double t0 = now_us();
  acc += probe_pass(data);
  const double t1 = now_us();
  probe_sink = acc;
  return t1 - t0;
}

bool Tracer::begin_op() {
  ++ops_;
  active_ = enabled_ && ops_ % 2 == 0;
  if (active_) ++traced_ops_;
  return active_;
}

std::size_t Tracer::open(const char* name) {
  const std::size_t parent = open_.empty() ? kNone : open_.back();
  spans_.push_back(Span{name, now_us(), 0.0, parent, ops_});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double Tracer::close(std::size_t index) {
  Span& s = spans_[index];
  s.end_us = now_us();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("rupsbench: spans closed out of order");
  }
  open_.pop_back();
  return s.end_us - s.start_us;
}

double Tracer::self_us(std::string_view name) const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) covered[s.parent] += s.end_us - s.start_us;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name) total += s.end_us - s.start_us - covered[i];
  }
  return total;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("rupsbench: cannot write " + path);
  const double base = spans_.empty() ? 0.0 : spans_.front().start_us;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld,\"op\":%llu}}%s\n",
                  s.name, s.start_us - base, s.end_us - s.start_us, i,
                  s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
}

void CounterDelta::begin() {
  before_ = rups::obs::Registry::global().snapshot();
  moved_.clear();
}

void CounterDelta::end() {
  const rups::obs::MetricsSnapshot after =
      rups::obs::Registry::global().snapshot();
  moved_.clear();
  for (const auto& c : after.counters) {
    const auto* b = before_.counter(c.name);
    const std::uint64_t delta = c.value - (b != nullptr ? b->value : 0);
    if (delta != 0) moved_[c.name] = delta;
  }
}

std::optional<std::uint64_t> CounterDelta::get(const std::string& name) const {
#ifdef RUPS_OBS_DISABLED
  (void)name;
  return std::nullopt;
#else
  const auto it = moved_.find(name);
  return it == moved_.end() ? 0 : it->second;
#endif
}

bool timing_dependent_counter(const std::string& name) {
  return name.rfind("log.", 0) == 0;
}

void Digest::add(std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xFFU;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add_double(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace rupsbench
