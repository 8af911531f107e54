// Fig. 19 + Tab. 7 — Parameter sensitivity of C-Libra: stage-duration
// combinations [exploration, EI, exploitation] in RTTs, and the switching
// threshold th1 (0.1x-0.4x base rate), on the wired and cellular sets.
// Paper shape: longer stages cost ~4% utilization on cellular but are fine
// on wired; EI 0.5->1 RTT hurts; utilization/delay vary little with th1.
#include "bench/common.h"

#include "core/factory.h"

namespace {
using namespace libra;
using namespace libra::benchx;

CcaFactory c_libra_with(LibraParams p) {
  auto brain = zoo().brain("libra-rl");
  return [p, brain] { return make_c_libra(brain, p); };
}

struct Avg {
  double util = 0, delay = 0;
};

Avg over_set(const std::vector<Scenario>& set, const CcaFactory& factory) {
  Avg avg;
  for (const Scenario& base : set) {
    Scenario s = base;
    s.duration = sec(30);
    Averaged a = average_runs(s, factory, /*runs=*/2);
    avg.util += a.link_utilization;
    avg.delay += a.avg_delay_ms;
  }
  avg.util /= set.size();
  avg.delay /= set.size();
  return avg;
}

}  // namespace

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  header("Fig. 19 + Tab. 7", "parameter sensitivity of C-Libra");

  // Fig. 19: stage-duration combinations [k_explore, EI, k_exploit] in RTTs.
  struct Durations {
    double explore, ei, exploit;
  };
  const std::vector<Durations> combos = {{1, 0.5, 1}, {1, 1, 1},   {2, 0.5, 2},
                                         {2, 1, 2},   {3, 0.5, 3}, {3, 1, 3}};
  Table fig({"durations [k,EI,k]", "wired util", "wired delay", "cell util",
             "cell delay"});
  for (const Durations& d : combos) {
    LibraParams p = c_libra_params();
    p.exploration_rtts = d.explore;
    p.ei_rtts = d.ei;
    p.exploitation_rtts = d.exploit;
    Avg wired = over_set(wired_set(), c_libra_with(p));
    Avg cell = over_set(cellular_set(), c_libra_with(p));
    fig.add_row({"[" + fmt(d.explore, 0) + "," + fmt(d.ei, 1) + "," +
                     fmt(d.exploit, 0) + "]",
                 fmt(wired.util, 3), fmt(wired.delay, 1), fmt(cell.util, 3),
                 fmt(cell.delay, 1)});
  }
  section("Fig. 19 — stage durations (paper: longer stages cost ~4% cellular "
          "utilization; wired tolerant)");
  fig.print();

  // Tab. 7: switching threshold th1.
  Table tab({"config", "link util", "avg delay (ms)"});
  for (double th : {0.1, 0.2, 0.3, 0.4}) {
    LibraParams p = c_libra_params();
    p.switch_threshold = th;
    Avg wired = over_set(wired_set(), c_libra_with(p));
    tab.add_row({"wired-" + fmt(th, 1) + "x", fmt(wired.util, 3),
                 fmt(wired.delay, 1)});
  }
  for (double th : {0.1, 0.2, 0.3, 0.4}) {
    LibraParams p = c_libra_params();
    p.switch_threshold = th;
    Avg cell = over_set(cellular_set(), c_libra_with(p));
    tab.add_row({"cellular-" + fmt(th, 1) + "x", fmt(cell.util, 3),
                 fmt(cell.delay, 1)});
  }
  section("Tab. 7 — switching threshold (paper: low sensitivity)");
  tab.print();
  return 0;
}
