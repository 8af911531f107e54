// Quickstart: run C-Libra (Libra over CUBIC) on an emulated 48 Mbps / 30 ms
// bottleneck next to plain CUBIC and compare throughput, delay and loss.
//
//   ./quickstart            # uses a freshly trained (small) RL policy
//
// Demonstrates the three public layers of the library:
//   * harness::CcaZoo   — build any congestion controller by name,
//   * harness::Scenario — describe a bottleneck,
//   * harness::run_single / summarize — run and measure.
#include <iostream>

#include "harness/report.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/zoo.h"

int main() {
  using namespace libra;

  std::cout << "libra quickstart: CUBIC vs C-Libra on a 48 Mbps / 30 ms link\n"
            << "(training the RL component on first run; cached in ./brains)\n";

  CcaZoo zoo;  // trains or loads the shared RL policy on demand

  Scenario link = wired_scenario(/*rate_mbps=*/48, /*min_rtt=*/msec(30));
  link.duration = sec(30);

  Table table({"cca", "throughput", "link util", "avg delay", "loss"});
  for (const char* name : {"cubic", "c-libra"}) {
    RunSummary run = run_single(link, zoo.factory(name), /*seed=*/1);
    table.add_row({name, fmt(run.total_throughput_bps / 1e6) + " Mbps",
                   fmt_pct(run.link_utilization),
                   fmt(run.avg_delay_ms) + " ms",
                   fmt_pct(run.flows[0].loss_rate)});
  }
  table.print();

  std::cout << "\nExpected shape: similar throughput, noticeably lower delay\n"
               "for c-libra (the RL candidate wins cycles where CUBIC would\n"
               "fill the buffer).\n";
  return 0;
}
