// Extension (paper Sec. VII future work): "further improve the accuracy of
// RUPS by involving other ambient wireless signals such as the 3G/4G, FM
// and TV bands". This bench adds the FM broadcast band (87.5–108 MHz,
// 205 channels) to the scanned spectrum and compares GSM-only, FM-only and
// combined fingerprinting.
//
// Modelling note: FM transmitters reuse the same deterministic tower/
// shadowing machinery as GSM (DESIGN.md §2) — broadcast infrastructure is
// sparser in reality, so treat FM-only numbers as optimistic; the point of
// the experiment is the marginal value of EXTRA spectrum, which survives
// that approximation.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_campaign.hpp"
#include "util/stats.hpp"
#include "v2v/codec.hpp"

using namespace rups;

int main() {
  bench::header("Extension", "multi-band fingerprinting (GSM + FM)");

  struct Case {
    const char* label;
    std::size_t gsm_channels;
    bool fm;
    int radios;
  };
  // Key trade-off this experiment surfaces: spectrum is only useful if the
  // scan capacity scales with it. With a FIXED radio count, a wider plan
  // stretches the sweep (15 ms/channel), the per-sweep batch report smears
  // over more road, and binding accuracy collapses — so the fair multi-band
  // configuration adds radios along with the band.
  const Case cases[] = {
      {"GSM 115 ch, 4 radios (paper)", 115, false, 4},
      {"GSM 40 ch, 4 radios (sparse)", 40, false, 4},
      {"GSM 40+FM 206, 4 radios", 40, true, 4},
      {"GSM 40+FM 206, 12 radios", 40, true, 12},
      {"GSM 115+FM 206, 12 radios", 115, true, 12},
  };

  const std::size_t queries = bench::scaled(120);
  auto csv = bench::csv_out("ext_multiband");
  csv.row(std::vector<std::string>{"case", "channels", "mean_rde_m",
                                   "availability", "context_kb_per_km"});

  std::printf("  %-26s %-9s %-12s %-14s %s\n", "case", "channels",
              "mean RDE(m)", "availability", "KB/km context");
  std::vector<double> rde;
  std::vector<double> avail;
  for (const auto& c : cases) {
    auto scenario =
        bench::paper_scenario(71, road::EnvironmentType::kFourLaneUrban);
    scenario.channels = c.gsm_channels;
    scenario.include_fm_band = c.fm;
    bench::set_radios(scenario, c.radios, c.radios);
    sim::Campaign campaign(scenario, bench::two_car_config(queries));
    const auto result = campaign.run();
    util::RunningStats r;
    for (double e : result.rups_errors()) r.add(e);
    const std::size_t channels = campaign.convoy().scenario().channels;
    const double kb_per_km =
        static_cast<double>(v2v::TrajectoryCodec::encoded_size(1000, channels)) /
        1000.0;
    std::printf("  %-26s %-9zu %-12.2f %-14.2f %.0f\n", c.label, channels,
                r.mean(), result.availability(), kb_per_km);
    csv.row(std::vector<std::string>{
        c.label, std::to_string(channels), std::to_string(r.mean()),
        std::to_string(result.availability()),
        std::to_string(kb_per_km)});
    rde.push_back(r.mean());
    avail.push_back(result.availability());
  }

  // Expected shape: adding FM on FIXED radios degrades (sweep smear); with
  // radios scaled to the band, the wide plan is at least as good as the
  // sparse GSM-only plan.
  const bool pass = rde[2] > rde[1] + 1.0 &&
                    rde[3] < rde[2] / 4.0 && avail[3] >= 0.95 &&
                    rde[4] <= rde[0] + 1.0;
  std::printf("  shape check: fixed radios + wide band smears; scaled radios recover: %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
