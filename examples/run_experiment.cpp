// Command-line experiment runner: any scenario x any set of CCAs.
//
//   run_experiment [scenario] [seconds] [seed] [cca ...]
//
//   scenario: wired24|wired48|wired96|lte-stationary|lte-walking|lte-driving|
//             step|wan-inter|wan-intra|satellite|5g          (default wired48)
//   seconds:  longer than run_single's 2 s warmup, on the 10 ms measurement
//             grid
//   seed:     an unsigned integer
//   default CCAs: cubic bbr c-libra
//   A bad seconds or seed value prints usage on stderr and exits 2.
//
// Example:
//   ./run_experiment lte-driving 30 7 cubic bbr orca c-libra
#include <iostream>
#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/zoo.h"
#include "tools/flag_parse.h"

namespace {

constexpr const char* kUsage = "usage: run_experiment [scenario] [seconds] [seed] [cca ...]\n";

libra::Scenario scenario_by_name(const std::string& name) {
  using namespace libra;
  if (name == "wired24") return wired_scenario(24);
  if (name == "wired48") return wired_scenario(48);
  if (name == "wired96") return wired_scenario(96);
  if (name == "lte-stationary")
    return lte_scenario(LteProfile::kStationary, "lte-stationary");
  if (name == "lte-walking") return lte_scenario(LteProfile::kWalking, "lte-walking");
  if (name == "lte-driving") return lte_scenario(LteProfile::kDriving, "lte-driving");
  if (name == "step") return step_scenario();
  if (name == "wan-inter") return wan_inter_continental();
  if (name == "wan-intra") return wan_intra_continental();
  if (name == "satellite") return satellite_scenario();
  if (name == "5g") return fiveg_scenario();
  throw std::invalid_argument("unknown scenario: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace libra;
  try {
    std::string scenario_name = argc > 1 ? argv[1] : "wired48";
    if (scenario_name == "-h" || scenario_name == "--help") {
      std::cout << kUsage << "known CCAs:";
      for (const auto& n : CcaZoo::all_names()) std::cout << ' ' << n;
      std::cout << "\n";
      return 0;
    }
    Scenario s = scenario_by_name(scenario_name);
    // At or below the warmup, the measured window is empty.
    if (argc > 2 && (!parse_duration(argv[2], kWindowGrid, s.duration) ||
                     s.duration <= sec(2))) {
      std::cerr << "bad seconds: " << argv[2] << "\n" << kUsage;
      return 2;
    }
    std::uint64_t seed = 1;
    if (argc > 3 && !parse_int<std::uint64_t>(argv[3], 0, ~std::uint64_t{0}, seed)) {
      std::cerr << "bad seed: " << argv[3] << "\n" << kUsage;
      return 2;
    }
    std::vector<std::string> ccas;
    for (int i = 4; i < argc; ++i) ccas.emplace_back(argv[i]);
    if (ccas.empty()) ccas = {"cubic", "bbr", "c-libra"};

    CcaZoo zoo;
    std::cout << "scenario=" << s.name << " duration=" << to_seconds(s.duration)
              << "s seed=" << seed << "\n";
    Table t({"cca", "throughput", "link util", "avg delay", "loss"});
    for (const std::string& name : ccas) {
      RunSummary run = run_single(s, zoo.factory(name), seed);
      t.add_row({name, fmt(run.total_throughput_bps / 1e6, 2) + " Mbps",
                 fmt_pct(run.link_utilization), fmt(run.avg_delay_ms, 1) + " ms",
                 fmt_pct(run.flows[0].loss_rate, 2)});
    }
    t.print();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n(try --help)\n";
    return 1;
  }
}
