// Cloud gaming / VR: a delay-sensitive application on a cellular link.
//
// Shows Libra's flexibility interface (Sec. 5.2): the application passes a
// latency-oriented utility (La-2 = 3x beta) and gets lower delay, trading a
// little utilization — without touching the algorithm. Compare against the
// default profile and a throughput-oriented one on the same walking-LTE
// trace.
#include <iostream>

#include "core/factory.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/zoo.h"

int main() {
  using namespace libra;

  std::cout << "cloud-gaming example: tuning Libra's preference mid-stack\n";
  CcaZoo zoo;
  auto brain = zoo.brain("libra-rl");

  // Deep-buffered cellular bottleneck: the regime where the preference knob
  // matters (a shallow buffer caps delay for everyone).
  Scenario lte = lte_scenario(LteProfile::kWalking, "lte-walking", msec(40),
                              /*buffer_bytes=*/500 * 1000);
  lte.duration = sec(40);

  struct Profile {
    std::string label;
    UtilityParams utility;
  };
  const Profile profiles[] = {
      {"throughput-oriented (Th-2)", throughput_oriented(2)},
      {"default", UtilityParams{}},
      {"latency-oriented (La-2)", latency_oriented(2)},
  };

  Table t({"preference", "link util", "avg delay", "p-style verdict"});
  for (const Profile& p : profiles) {
    LibraParams params = c_libra_params();
    params.utility = p.utility;
    RunSummary run = run_single(
        lte, [&] { return make_c_libra(brain, params); },
        /*seed=*/3);
    std::string verdict = run.avg_delay_ms < 90 ? "playable" : "laggy";
    t.add_row({p.label, fmt_pct(run.link_utilization), fmt(run.avg_delay_ms, 1) + " ms",
               verdict});
  }
  t.print();

  std::cout << "\nThe same controller serves bulk transfer and cloud gaming:\n"
               "only the utility weights change (Fig. 11's knob).\n";
  return 0;
}
