// Ablation (Sec. 2 claim) — "it is not feasible to maintain a low queuing
// delay for CUBIC without the involvement of AQM schemes (e.g., CoDel) which
// requires changes in the network devices". Compares:
//   * CUBIC on a deep droptail buffer         (bufferbloat)
//   * CUBIC behind an in-network CoDel queue  (low delay, needs device support)
//   * C-Libra on the same deep droptail buffer (low delay, endpoint-only)
#include "bench/common.h"

#include "classic/cubic.h"
#include "sim/network.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("CoDel ablation", "endpoint (Libra) vs in-network (CoDel) delay control");

  constexpr double kRate = 48;
  constexpr SimDuration kHorizon = sec(30);

  Table t({"configuration", "throughput", "avg delay", "needs AQM device"});

  // CUBIC on a deep droptail buffer.
  {
    Scenario s = wired_scenario(kRate, msec(30), 600'000);
    s.duration = kHorizon;
    RunSummary sum = run_single(s, zoo().factory("cubic"), 1);
    t.add_row({"cubic + droptail(600KB)", fmt(sum.total_throughput_bps / 1e6, 1) + " Mbps",
               fmt(sum.avg_delay_ms, 1) + " ms", "no"});
  }

  // CUBIC behind CoDel.
  {
    LinkConfig cfg;
    cfg.capacity = std::make_shared<ConstantTrace>(mbps(kRate));
    cfg.buffer_bytes = 600'000;
    cfg.propagation_delay = msec(15);
    cfg.codel = CodelParams{};
    Network net(cfg);
    net.add_flow(std::make_unique<Cubic>());
    net.run_until(kHorizon);
    double thr = net.flow(0).throughput_in(sec(2), kHorizon);
    double delay = net.flow(0).mean_rtt_in(sec(2), kHorizon);
    t.add_row({"cubic + codel", fmt(thr / 1e6, 1) + " Mbps",
               fmt(delay, 1) + " ms", "YES"});
  }

  // C-Libra on the same deep droptail buffer.
  {
    Scenario s = wired_scenario(kRate, msec(30), 600'000);
    s.duration = kHorizon;
    RunSummary sum = run_single(s, zoo().factory("c-libra"), 1);
    t.add_row({"c-libra + droptail(600KB)", fmt(sum.total_throughput_bps / 1e6, 1) + " Mbps",
               fmt(sum.avg_delay_ms, 1) + " ms", "no"});
  }

  section("Libra's pitch: CoDel-class delay without touching the network");
  t.print();
  return 0;
}
