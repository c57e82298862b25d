// obs_diff: the metrics-diff regression gate. Compares two metrics JSON
// documents — bare obs::MetricsSnapshot dumps (trace_tool --metrics-out,
// bench_out/*_metrics.json), committed bench baselines (BENCH_*.json with
// "benchmarks"/"metrics" sections), or google-benchmark --benchmark_out
// files — metric by metric against per-kind relative tolerances, prints a
// pass/fail table and exits non-zero when the candidate regressed.
//
//   $ ./obs_diff BENCH_obs_baseline.json fresh_run.json
//   $ ./obs_diff --section comm_metrics --counter-tol 0.02 base.json new.json
//
// Exit codes: 0 = within tolerance, 1 = regression(s), 2 = usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

using rups::util::JsonValue;

namespace {

struct Options {
  std::string baseline_path;
  std::string candidate_path;
  std::string section;          // dotted path to the metrics object
  double counter_tol = 0.25;    // two-sided relative
  double gauge_tol = 0.25;      // two-sided, relative with abs floor 1.0
  double mean_tol = 0.50;       // one-sided on histogram means
  double bench_tol = 0.50;      // one-sided on benchmark times
  double label_tol = -1.0;      // family cells ("name{...}"); <0 = inherit
  double series_tol = 0.25;     // series columns, per-column mean
  double series_timing_tol = 1.0;  // one-sided, p50/p95/p99 series columns
  bool gauge_one_sided = false;  // only increases beyond gauge_tol fail
  bool series_one_sided = false;  // series fail only on increases
  bool skip_counters = false;
  bool skip_gauges = false;
  bool skip_histograms = false;
  bool skip_benchmarks = false;
  bool skip_series = false;
  bool require_all = false;     // metrics missing from candidate fail
  std::vector<std::string> ignore;  // name substrings to exclude
  /// Per-label tolerance tiers: family cells whose name contains the
  /// substring use this tolerance instead (first match wins).
  std::vector<std::pair<std::string, double>> label_tiers;

  /// Tolerance for one scalar metric: label tiers, then the family-cell
  /// override, then the per-kind default.
  [[nodiscard]] double tol_for(const std::string& name,
                               double kind_default) const {
    const bool labeled = name.find('{') != std::string::npos;
    if (labeled) {
      for (const auto& [substr, tol] : label_tiers) {
        if (name.find(substr) != std::string::npos) return tol;
      }
      if (label_tol >= 0.0) return label_tol;
    }
    return kind_default;
  }
};

void print_help() {
  std::printf(
      "usage: obs_diff [flags] <baseline.json> <candidate.json>\n"
      "\n"
      "Compares two metrics JSON files and fails on out-of-tolerance\n"
      "differences. Accepted inputs: obs::MetricsSnapshot dumps, committed\n"
      "bench baselines (objects with \"metrics\"/\"benchmarks\" sections),\n"
      "and google-benchmark --benchmark_out files.\n"
      "\n"
      "flags:\n"
      "  --section PATH      read the metrics object at this dotted path\n"
      "                      when a file has it (e.g. comm_metrics); files\n"
      "                      without the path fall back to the default:\n"
      "                      the document itself, or its \"metrics\" member\n"
      "  --counter-tol F     relative tolerance for counters, two-sided\n"
      "                      (default 0.25)\n"
      "  --gauge-tol F       tolerance for gauges: |diff| <= F*max(|base|,1)\n"
      "                      (default 0.25)\n"
      "  --gauge-one-sided   gauges fail only on INCREASES beyond the\n"
      "                      tolerance (for timing-style gauges where\n"
      "                      smaller is better)\n"
      "  --mean-tol F        one-sided tolerance for histogram-mean\n"
      "                      regressions (default 0.5)\n"
      "  --bench-tol F       one-sided tolerance for benchmark time\n"
      "                      regressions: real (wall) time where an entry\n"
      "                      has it, cpu time otherwise (default 0.5)\n"
      "  --label-tol F       tolerance override for labeled family cells\n"
      "                      (names like \"family{key=\\\"v\\\"}\"); default:\n"
      "                      inherit the per-kind tolerance\n"
      "  --label-tier S=F    family cells whose name contains S use\n"
      "                      tolerance F (repeatable; first match wins;\n"
      "                      beats --label-tol)\n"
      "  --series-tol F      per-column tolerance for time-series sections,\n"
      "                      compared on the column mean (default 0.25)\n"
      "  --series-timing-tol F\n"
      "                      one-sided tolerance for p50/p95/p99 series\n"
      "                      columns (wall-clock quantiles; default 1.0)\n"
      "  --series-one-sided  non-timing series columns fail only on\n"
      "                      INCREASES beyond the tolerance\n"
      "  --skip-counters     do not compare counters\n"
      "  --skip-gauges       do not compare gauges\n"
      "  --skip-histograms   do not compare histogram means\n"
      "  --skip-benchmarks   do not compare benchmark timings\n"
      "  --skip-series       do not compare time-series sections\n"
      "  --ignore SUBSTR     exclude metrics whose name contains SUBSTR\n"
      "                      (repeatable)\n"
      "  --require-all       baseline metrics missing from the candidate\n"
      "                      count as failures (default: skipped)\n"
      "  --help              this text\n");
}

std::optional<JsonValue> load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return JsonValue::parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    return std::nullopt;
  }
}

bool ignored(const Options& opt, const std::string& name) {
  for (const std::string& s : opt.ignore) {
    if (name.find(s) != std::string::npos) return true;
  }
  return false;
}

/// The metrics object inside a document: the --section path when that
/// path exists in this document, else the document itself when it already
/// looks like a snapshot, else its "metrics" member. The per-file fallback
/// lets a sectioned baseline bundle be diffed against a bare snapshot dump.
const JsonValue* metrics_of(const JsonValue& doc, const Options& opt) {
  if (!opt.section.empty()) {
    if (const JsonValue* v = doc.find_path(opt.section)) return v;
  }
  if (doc.find("counters") != nullptr) return &doc;
  return doc.find("metrics");
}

/// name -> value maps for one snapshot section ("counters"/"gauges").
std::map<std::string, double> scalar_section(const JsonValue* metrics,
                                             const char* section) {
  std::map<std::string, double> out;
  if (metrics == nullptr) return out;
  const JsonValue* arr = metrics->find(section);
  if (arr == nullptr || !arr->is_array()) return out;
  for (const JsonValue& entry : arr->as_array()) {
    const JsonValue* name = entry.find("name");
    const JsonValue* value = entry.find("value");
    if (name != nullptr && name->is_string() && value != nullptr &&
        value->is_number()) {
      out[name->as_string()] = value->as_number();
    }
  }
  return out;
}

/// name -> mean for the histograms section.
std::map<std::string, double> histogram_means(const JsonValue* metrics) {
  std::map<std::string, double> out;
  if (metrics == nullptr) return out;
  const JsonValue* arr = metrics->find("histograms");
  if (arr == nullptr || !arr->is_array()) return out;
  for (const JsonValue& entry : arr->as_array()) {
    const JsonValue* name = entry.find("name");
    if (name == nullptr || !name->is_string()) continue;
    const double count = entry.number_or("count", 0.0);
    const double sum = entry.number_or("sum", 0.0);
    out[name->as_string()] = count > 0.0 ? sum / count : 0.0;
  }
  return out;
}

/// The time-series object inside a document: the document itself when it
/// is a bare TimeSeriesData dump (trace_tool --series-out), else a
/// "series" member (of the --section object when given, of the document
/// otherwise — the shape of committed telemetry baseline sections).
const JsonValue* series_of(const JsonValue& doc, const Options& opt) {
  if (!opt.section.empty()) {
    if (const JsonValue* v = doc.find_path(opt.section)) {
      if (const JsonValue* s = v->find("series")) return s;
      if (v->find("window_end_s") != nullptr) return v;
    }
  }
  if (doc.find("window_end_s") != nullptr) return &doc;
  return doc.find("series");
}

/// "name#kind" -> mean over the column's windows. Window boundaries are
/// sim-time-deterministic, so the column mean is the stable scalar to
/// regress on.
std::map<std::string, double> series_columns(const JsonValue* series) {
  std::map<std::string, double> out;
  if (series == nullptr) return out;
  const JsonValue* cols = series->find("columns");
  if (cols == nullptr || !cols->is_array()) return out;
  for (const JsonValue& col : cols->as_array()) {
    const JsonValue* values = col.find("values");
    if (values == nullptr || !values->is_array()) continue;
    double sum = 0.0;
    for (const JsonValue& v : values->as_array()) sum += v.as_number();
    const std::size_t n = values->as_array().size();
    out[col.string_or("name", "") + "#" + col.string_or("kind", "")] =
        n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
  return out;
}

/// One benchmark entry's time in ns, or NaN when it has no `field`:
/// committed baselines store <field>_ns, google-benchmark stores <field> +
/// time_unit.
double entry_time_ns(const JsonValue& entry, const std::string& field) {
  const double ns = entry.number_or(field + "_ns", std::nan(""));
  if (!std::isnan(ns)) return ns;
  const double t = entry.number_or(field, std::nan(""));
  if (std::isnan(t)) return t;
  const std::string unit = entry.string_or("time_unit", "ns");
  double scale = 1.0;
  if (unit == "us") scale = 1e3;
  else if (unit == "ms") scale = 1e6;
  else if (unit == "s") scale = 1e9;
  return t * scale;
}

/// Benchmark times in ns: real (wall) time where the entry has it — pooled
/// benchmarks spend their cpu time on worker threads — else cpu time.
std::map<std::string, double> benchmark_times(const JsonValue& doc) {
  std::map<std::string, double> out;
  const JsonValue* arr = doc.find("benchmarks");
  if (arr == nullptr || !arr->is_array()) return out;
  for (const JsonValue& entry : arr->as_array()) {
    const JsonValue* name = entry.find("name");
    if (name == nullptr || !name->is_string()) continue;
    double ns = entry_time_ns(entry, "real_time");
    if (std::isnan(ns)) ns = entry_time_ns(entry, "cpu_time");
    if (std::isnan(ns)) continue;
    // UseRealTime() benchmarks carry a "/real_time" name suffix; key them
    // by the base name so a baseline taken before the switch still pairs.
    std::string key = name->as_string();
    const std::string suffix = "/real_time";
    if (key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      key.resize(key.size() - suffix.size());
    }
    out[key] = ns;
  }
  return out;
}

class DiffTable {
 public:
  explicit DiffTable(const Options& opt) : opt_(opt) {}

  /// one_sided: only candidate > baseline counts as a regression.
  void compare(const char* kind, const std::string& name, double base,
               double cand, double tol, bool one_sided) {
    if (ignored(opt_, name)) return;
    double delta;
    if (base == 0.0 && cand == 0.0) {
      delta = 0.0;
    } else if (base == 0.0) {
      delta = std::numeric_limits<double>::infinity();
    } else {
      delta = (cand - base) / std::abs(base);
    }
    const bool fail = one_sided ? delta > tol : std::abs(delta) > tol;
    row(kind, name, base, cand, delta, tol, fail);
  }

  /// Gauges: relative with an absolute floor of 1.0 so near-zero gauges
  /// (e.g. an availability of 0.0 vs 0.01) do not explode the ratio. With
  /// --gauge-one-sided only increases count (timing-style gauges).
  void compare_gauge(const std::string& name, double base, double cand,
                     double tol) {
    if (ignored(opt_, name)) return;
    const double diff = cand - base;
    const double allowed = tol * std::max(std::abs(base), 1.0);
    const double delta = base != 0.0 ? diff / std::abs(base) : diff;
    const bool fail =
        opt_.gauge_one_sided ? diff > allowed : std::abs(diff) > allowed;
    row("gauge", name, base, cand, delta, tol, fail);
  }

  void missing(const char* kind, const std::string& name, double base) {
    if (ignored(opt_, name)) return;
    if (!opt_.require_all) return;
    std::printf("FAIL  %-9s %-36s %14.6g %14s  missing from candidate\n",
                kind, name.c_str(), base, "-");
    ++failures_;
    ++compared_;
  }

  [[nodiscard]] int failures() const noexcept { return failures_; }
  [[nodiscard]] int compared() const noexcept { return compared_; }

 private:
  void row(const char* kind, const std::string& name, double base,
           double cand, double delta, double tol, bool fail) {
    ++compared_;
    if (fail) ++failures_;
    // Only print failing rows plus a compact OK line per kind? No —
    // the full table is the point: one glance shows what moved.
    std::printf("%s  %-9s %-36s %14.6g %14.6g %+8.1f%% (tol %.0f%%)\n",
                fail ? "FAIL" : " ok ", kind, name.c_str(), base, cand,
                delta * 100.0, tol * 100.0);
  }

  const Options& opt_;
  int failures_ = 0;
  int compared_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&](double* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        return false;
      }
      *out = std::strtod(argv[++i], nullptr);
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    } else if (arg == "--section") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --section requires a value\n");
        return 2;
      }
      opt.section = argv[++i];
    } else if (arg == "--ignore") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --ignore requires a value\n");
        return 2;
      }
      opt.ignore.emplace_back(argv[++i]);
    } else if (arg == "--counter-tol") {
      if (!next_value(&opt.counter_tol)) return 2;
    } else if (arg == "--gauge-tol") {
      if (!next_value(&opt.gauge_tol)) return 2;
    } else if (arg == "--mean-tol") {
      if (!next_value(&opt.mean_tol)) return 2;
    } else if (arg == "--bench-tol") {
      if (!next_value(&opt.bench_tol)) return 2;
    } else if (arg == "--label-tol") {
      if (!next_value(&opt.label_tol)) return 2;
    } else if (arg == "--series-tol") {
      if (!next_value(&opt.series_tol)) return 2;
    } else if (arg == "--series-timing-tol") {
      if (!next_value(&opt.series_timing_tol)) return 2;
    } else if (arg == "--label-tier") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --label-tier requires SUBSTR=F\n");
        return 2;
      }
      const std::string tier = argv[++i];
      const std::size_t eq = tier.rfind('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr,
                     "error: --label-tier expects SUBSTR=F, got '%s'\n",
                     tier.c_str());
        return 2;
      }
      opt.label_tiers.emplace_back(tier.substr(0, eq),
                                   std::strtod(tier.c_str() + eq + 1,
                                               nullptr));
    } else if (arg == "--gauge-one-sided") {
      opt.gauge_one_sided = true;
    } else if (arg == "--series-one-sided") {
      opt.series_one_sided = true;
    } else if (arg == "--skip-counters") {
      opt.skip_counters = true;
    } else if (arg == "--skip-gauges") {
      opt.skip_gauges = true;
    } else if (arg == "--skip-histograms") {
      opt.skip_histograms = true;
    } else if (arg == "--skip-benchmarks") {
      opt.skip_benchmarks = true;
    } else if (arg == "--skip-series") {
      opt.skip_series = true;
    } else if (arg == "--require-all") {
      opt.require_all = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "error: unknown flag %s (see obs_diff --help)\n",
                   arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "error: expected <baseline.json> <candidate.json> "
                 "(see obs_diff --help)\n");
    return 2;
  }
  opt.baseline_path = positional[0];
  opt.candidate_path = positional[1];

  const auto baseline = load_json(opt.baseline_path);
  const auto candidate = load_json(opt.candidate_path);
  if (!baseline.has_value() || !candidate.has_value()) return 2;
  if (!opt.section.empty() && baseline->find_path(opt.section) == nullptr &&
      candidate->find_path(opt.section) == nullptr) {
    std::fprintf(stderr, "error: section '%s' not found in either input\n",
                 opt.section.c_str());
    return 2;
  }

  std::printf("obs_diff: %s vs %s\n", opt.baseline_path.c_str(),
              opt.candidate_path.c_str());

  DiffTable table(opt);
  const JsonValue* base_metrics = metrics_of(*baseline, opt);
  const JsonValue* cand_metrics = metrics_of(*candidate, opt);

  if (!opt.skip_counters) {
    const auto base = scalar_section(base_metrics, "counters");
    const auto cand = scalar_section(cand_metrics, "counters");
    for (const auto& [name, value] : base) {
      const auto it = cand.find(name);
      if (it == cand.end()) {
        table.missing("counter", name, value);
      } else {
        table.compare("counter", name, value, it->second,
                      opt.tol_for(name, opt.counter_tol),
                      /*one_sided=*/false);
      }
    }
  }
  if (!opt.skip_gauges) {
    const auto base = scalar_section(base_metrics, "gauges");
    const auto cand = scalar_section(cand_metrics, "gauges");
    for (const auto& [name, value] : base) {
      const auto it = cand.find(name);
      if (it == cand.end()) {
        table.missing("gauge", name, value);
      } else {
        table.compare_gauge(name, value, it->second,
                            opt.tol_for(name, opt.gauge_tol));
      }
    }
  }
  if (!opt.skip_histograms) {
    const auto base = histogram_means(base_metrics);
    const auto cand = histogram_means(cand_metrics);
    for (const auto& [name, value] : base) {
      const auto it = cand.find(name);
      if (it == cand.end()) {
        table.missing("hist_mean", name, value);
      } else {
        table.compare("hist_mean", name, value, it->second,
                      opt.tol_for(name, opt.mean_tol),
                      /*one_sided=*/true);
      }
    }
  }
  if (!opt.skip_benchmarks) {
    const auto base = benchmark_times(*baseline);
    const auto cand = benchmark_times(*candidate);
    for (const auto& [name, value] : base) {
      const auto it = cand.find(name);
      if (it == cand.end()) {
        table.missing("bench_ns", name, value);
      } else {
        table.compare("bench_ns", name, value, it->second, opt.bench_tol,
                      /*one_sided=*/true);
      }
    }
  }
  if (!opt.skip_series) {
    const auto base = series_columns(series_of(*baseline, opt));
    const auto cand = series_columns(series_of(*candidate, opt));
    for (const auto& [key, value] : base) {
      // Wall-clock quantile columns regress one-sided against the looser
      // timing tolerance; sim-time-deterministic kinds (rate, count, last,
      // staleness) use --series-tol.
      const std::string kind = key.substr(key.rfind('#') + 1);
      const bool timing = kind == "p50" || kind == "p95" || kind == "p99";
      const auto it = cand.find(key);
      if (it == cand.end()) {
        table.missing("series", key, value);
      } else if (timing) {
        table.compare("series", key, value, it->second, opt.series_timing_tol,
                      /*one_sided=*/true);
      } else {
        table.compare("series", key, value, it->second,
                      opt.tol_for(key, opt.series_tol), opt.series_one_sided);
      }
    }
  }

  if (table.compared() == 0) {
    std::fprintf(stderr,
                 "error: nothing to compare (no overlapping metrics — wrong "
                 "--section or input shape?)\n");
    return 2;
  }
  std::printf("obs_diff: %d compared, %d regression(s) -> %s\n",
              table.compared(), table.failures(),
              table.failures() == 0 ? "PASS" : "FAIL");
  return table.failures() == 0 ? 0 : 1;
}
