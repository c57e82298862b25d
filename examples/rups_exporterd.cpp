// rups_exporterd: long-lived ops daemon around one fleet simulation. It
// drives beacon rounds on the campaign cadence (warm-up, then
// advance + exchange_and_estimate per interval) with the campaign's live
// HealthMonitor, while a MetricsExporter serves the registry snapshot as
// Prometheus text on /metrics and the monitor's verdict on /healthz:
//
//   $ ./rups_exporterd --port 9464 &
//   $ curl -s localhost:9464/metrics | grep fleet_query_outcome
//   $ curl -si localhost:9464/healthz          # 200 healthy / 503 degraded
//
// --port 0 (the default) binds an ephemeral port and prints it, so the
// daemon is usable in tests without a port reservation. --selfcheck runs a
// short campaign and scrapes its own endpoints through obs::http_get — a
// curl-free end-to-end proof that the scrape path works (used by ctest and
// the CI matrix).
//
// Exit codes: 0 = clean run / selfcheck passed, 1 = selfcheck or exporter
// failure, 2 = usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/obs.hpp"
#include "sim/campaign.hpp"

using namespace rups;

namespace {

struct Options {
  int port = 0;              // 0 = ephemeral, printed after bind
  std::size_t vehicles = 5;  // ego + 4 neighbours
  std::size_t rounds = 0;    // 0 = run until the route ends
  double interval_s = 3.0;   // beacon cadence (sim seconds)
  std::uint64_t seed = 7;
  bool selfcheck = false;
};

void print_help() {
  std::printf(
      "usage: rups_exporterd [flags]\n"
      "\n"
      "Runs an urban-profile fleet campaign round by round and serves live\n"
      "Prometheus metrics on /metrics plus the health verdict on /healthz\n"
      "while it runs.\n"
      "\n"
      "flags:\n"
      "  --port N       TCP port for /metrics (default 0 = ephemeral)\n"
      "  --vehicles N   convoy size, ego included (default 5, min 2)\n"
      "  --rounds N     beacon rounds after warm-up (default 0 = route end)\n"
      "  --interval S   sim-seconds between rounds (default 3)\n"
      "  --seed N       scenario seed (default 7)\n"
      "  --selfcheck    short campaign, then scrape /metrics + /healthz\n"
      "                 through obs::http_get and exit non-zero on failure\n"
      "  --help         this text\n");
}

/// Self-scrape: the acceptance probe for the whole export path. Fetches
/// both endpoints over a real socket and checks the exposition carries the
/// fleet outcome family (sanitized: fleet_query_outcome{outcome="..."})
/// and parses back through parse_prometheus.
bool selfcheck_scrape(const obs::MetricsExporter& exporter) {
  std::string body;
  const int status =
      obs::http_get("127.0.0.1", exporter.port(), "/metrics", body);
  if (status != 200) {
    std::fprintf(stderr, "selfcheck: GET /metrics -> %d\n", status);
    return false;
  }
  if (body.find("fleet_query_outcome{outcome=") == std::string::npos) {
    std::fprintf(stderr,
                 "selfcheck: /metrics lacks fleet_query_outcome cells\n");
    return false;
  }
  try {
    const auto samples = obs::parse_prometheus(body);
    if (samples.empty()) {
      std::fprintf(stderr, "selfcheck: /metrics parsed to zero samples\n");
      return false;
    }
    std::printf("selfcheck: /metrics ok (%zu samples, %zu bytes)\n",
                samples.size(), body.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selfcheck: /metrics unparseable: %s\n", e.what());
    return false;
  }

  std::string health;
  const int hstatus =
      obs::http_get("127.0.0.1", exporter.port(), "/healthz", health);
  // 200 healthy and 503 degraded are both valid verdicts; anything else
  // means the endpoint itself is broken.
  if (hstatus != 200 && hstatus != 503) {
    std::fprintf(stderr, "selfcheck: GET /healthz -> %d\n", hstatus);
    return false;
  }
  if (health.find("\"healthy\"") == std::string::npos) {
    std::fprintf(stderr, "selfcheck: /healthz body is not a health report\n");
    return false;
  }
  std::printf("selfcheck: /healthz ok (%d)\n", hstatus);

  const int missing =
      obs::http_get("127.0.0.1", exporter.port(), "/nonesuch", body);
  if (missing != 404) {
    std::fprintf(stderr, "selfcheck: GET /nonesuch -> %d (want 404)\n",
                 missing);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    } else if (arg == "--port") {
      opt.port = static_cast<int>(std::strtol(value(), nullptr, 10));
    } else if (arg == "--vehicles") {
      opt.vehicles = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--rounds") {
      opt.rounds = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--interval") {
      opt.interval_s = std::strtod(value(), nullptr);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--selfcheck") {
      opt.selfcheck = true;
    } else {
      std::fprintf(stderr,
                   "error: unknown flag %s (see rups_exporterd --help)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (opt.vehicles < 2) {
    std::fprintf(stderr, "error: --vehicles must be at least 2\n");
    return 2;
  }
  if (opt.port < 0 || opt.port > 65535) {
    std::fprintf(stderr, "error: --port must be 0..65535\n");
    return 2;
  }
  if (opt.selfcheck && opt.rounds == 0) opt.rounds = 6;

  // Stock urban profile, matching telemetry_report: four-lane urban
  // environment with the urban packet-fault mix on every exchange.
  sim::Scenario scenario = sim::Scenario::fleet(
      opt.seed, road::EnvironmentType::kFourLaneUrban, opt.vehicles);
  sim::CampaignConfig cfg;
  cfg.interval_s = opt.interval_s;
  cfg.fault = v2v::FaultConfig::urban();
  // Rounds are stepped here rather than through run(), so scrapes
  // interleave with work; the exporter reads the campaign's health live.
  sim::Campaign campaign(scenario, cfg);
  const obs::HealthMonitor& monitor = campaign.health();

  obs::MetricsExporter::Options exporter_opt;
  exporter_opt.port = static_cast<std::uint16_t>(opt.port);
  obs::MetricsExporter exporter(
      exporter_opt,
      [] {
        if (obs::alloc_census_enabled()) obs::publish_alloc_census();
        return obs::Registry::global().snapshot();
      },
      [&monitor] { return monitor.report(); });
  if (!exporter.start()) {
    std::fprintf(stderr, "error: exporter failed to bind port %d\n", opt.port);
    return 1;
  }
  std::printf("rups_exporterd: serving /metrics and /healthz on 127.0.0.1:%u\n",
              exporter.port());
  std::printf(
      "rups_exporterd: %zu vehicles, interval %.1f sim-s, %s rounds\n",
      opt.vehicles, opt.interval_s,
      opt.rounds == 0 ? "unbounded" : std::to_string(opt.rounds).c_str());

  std::size_t rounds_done = 0;
  std::size_t hits = 0;
  std::size_t outcomes = 0;
  bool scraped_mid_campaign = !opt.selfcheck;
  while ((opt.rounds == 0 || rounds_done < opt.rounds) && campaign.advance()) {
    ++rounds_done;
    for (const sim::CampaignOutcome& o : campaign.exchange_and_estimate()) {
      ++outcomes;
      if (o.result.estimate.has_value()) ++hits;
    }
    // Mid-campaign probe: the exporter must serve while rounds run, not
    // only after the workload goes quiet.
    if (!scraped_mid_campaign && rounds_done == opt.rounds / 2 + 1) {
      scraped_mid_campaign = true;
      std::string body;
      const int status =
          obs::http_get("127.0.0.1", exporter.port(), "/metrics", body);
      if (status != 200 || body.empty()) {
        std::fprintf(stderr, "selfcheck: mid-campaign scrape -> %d\n", status);
        exporter.stop();
        return 1;
      }
      std::printf("selfcheck: mid-campaign scrape ok (round %zu)\n",
                  rounds_done);
    }
  }
  const obs::HealthReport report = monitor.report();
  std::printf(
      "rups_exporterd: %zu rounds, %zu/%zu estimates, health %s, v2v bytes "
      "%zu\n",
      rounds_done, hits, outcomes, report.healthy() ? "ok" : "degraded",
      campaign.v2v_bytes());

  int rc = 0;
  if (opt.selfcheck) {
    if (rounds_done == 0 || outcomes == 0) {
      std::fprintf(stderr, "selfcheck: campaign produced no outcomes\n");
      rc = 1;
    } else if (!selfcheck_scrape(exporter)) {
      rc = 1;
    }
  }
  // Ordered shutdown: exporter before any trace sink teardown (atexit), so
  // no scrape can race the process unwinding underneath it.
  exporter.stop();
  std::printf("rups_exporterd: exporter served %llu requests\n",
              static_cast<unsigned long long>(exporter.requests()));
  if (opt.selfcheck) {
    std::printf("rups_exporterd selfcheck: %s\n", rc == 0 ? "PASS" : "FAIL");
  }
  return rc;
}
