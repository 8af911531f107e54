// Ablation (Sec. 2 claim) — "it is not feasible to maintain a low queuing
// delay for CUBIC without the involvement of AQM schemes (e.g., CoDel) which
// requires changes in the network devices". Compares:
//   * CUBIC on a deep droptail buffer         (bufferbloat)
//   * CUBIC behind an in-network CoDel queue  (low delay, needs device support)
//   * C-Libra on the same deep droptail buffer (low delay, endpoint-only)
#include "bench/common.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("CoDel ablation", "endpoint (Libra) vs in-network (CoDel) delay control");

  constexpr double kRate = 48;
  constexpr SimDuration kHorizon = sec(30);

  Table t({"configuration", "throughput", "avg delay", "needs AQM device"});

  // Every row runs over the same 600 KB buffer; the CoDel row sets the link's
  // queue discipline, the one change that needs the network's cooperation.
  auto add_row = [&t](const char* label, const char* cca, bool codel) {
    Scenario s = wired_scenario(kRate, msec(30), 600'000);
    s.duration = kHorizon;
    if (codel) s.link.codel = CodelParams{};
    RunSummary sum = run_single(s, zoo().factory(cca), 1);
    t.add_row({label, fmt(sum.total_throughput_bps / 1e6, 1) + " Mbps",
               fmt(sum.avg_delay_ms, 1) + " ms", codel ? "YES" : "no"});
  };
  add_row("cubic + droptail(600KB)", "cubic", false);
  add_row("cubic + codel", "cubic", true);
  add_row("c-libra + droptail(600KB)", "c-libra", false);

  section("Libra's pitch: CoDel-class delay without touching the network");
  t.print();
  return 0;
}
