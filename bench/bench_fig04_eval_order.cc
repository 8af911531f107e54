// Fig. 4 ablation — the "lower rate first" evaluation-order rule. Runs
// C-Libra with lower-first vs higher-first EI ordering on the cellular set.
// Paper argument: trying the higher candidate first self-inflicts queueing
// onto the lower candidate's measurement, producing wrong decisions; the
// lower-first rule avoids the side effect.
#include "bench/common.h"

#include "core/factory.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Fig. 4 (ablation)", "evaluation order: lower rate first vs reversed");

  auto brain = zoo().brain("libra-rl");
  Table t({"order", "wired util", "wired delay", "cell util", "cell delay"});
  for (bool lower_first : {true, false}) {
    LibraParams p = c_libra_params();
    p.lower_rate_first = lower_first;
    CcaFactory factory = [p, brain] { return make_c_libra(brain, p); };

    double wu = 0, wd = 0, cu = 0, cd = 0;
    for (const Scenario& base : wired_set()) {
      Scenario s = base;
      s.duration = sec(30);
      Averaged a = average_runs(s, factory, 2);
      wu += a.link_utilization;
      wd += a.avg_delay_ms;
    }
    for (const Scenario& base : cellular_set()) {
      Scenario s = base;
      s.duration = sec(30);
      Averaged a = average_runs(s, factory, 2);
      cu += a.link_utilization;
      cd += a.avg_delay_ms;
    }
    t.add_row({lower_first ? "lower-first (paper rule)" : "higher-first",
               fmt(wu / 4, 3), fmt(wd / 4, 1), fmt(cu / 4, 3), fmt(cd / 4, 1)});
  }
  section("Paper expectation: the lower-first rule equal-or-better on both sets");
  t.print();
  return 0;
}
