// Fig. 11 — Flexibility: utility-weight variants Default / Th-1 / Th-2
// (2x/3x alpha) / La-1 / La-2 (2x/3x beta) for C-Libra and B-Libra.
// (a,b) single flow on the wired and cellular sets: Th-variants trade delay
// for utilization, La-variants the reverse. (c,d) one Libra flow competing
// with one CUBIC flow: the Th-variants claim a larger bandwidth share.
#include "bench/common.h"

#include "core/factory.h"

namespace {
using namespace libra;
using namespace libra::benchx;

CcaFactory libra_with(UtilityParams up, bool bbr_variant) {
  auto brain = zoo().brain("libra-rl");
  return [up, bbr_variant, brain]() -> std::unique_ptr<CongestionControl> {
    LibraParams p = bbr_variant ? b_libra_params() : c_libra_params();
    p.utility = up;
    return bbr_variant ? make_b_libra(brain, p)
                       : make_c_libra(brain, p);
  };
}

struct Variant {
  std::string label;
  UtilityParams utility;
};

std::vector<Variant> variants() {
  return {{"default", UtilityParams{}},
          {"th-1", throughput_oriented(1)},
          {"th-2", throughput_oriented(2)},
          {"la-1", latency_oriented(1)},
          {"la-2", latency_oriented(2)}};
}

void single_flow(const std::vector<Scenario>& set, const std::string& label) {
  Table t({"variant", "c-libra util", "c-libra delay", "b-libra util",
           "b-libra delay"});
  for (const Variant& v : variants()) {
    double cu = 0, cd = 0, bu = 0, bd = 0;
    for (const Scenario& base : set) {
      Scenario s = base;
      s.duration = sec(30);
      Averaged c = average_runs(s, libra_with(v.utility, false), 2);
      Averaged b = average_runs(s, libra_with(v.utility, true), 2);
      cu += c.link_utilization;
      cd += c.avg_delay_ms;
      bu += b.link_utilization;
      bd += b.avg_delay_ms;
    }
    auto n = static_cast<double>(set.size());
    t.add_row({v.label, fmt(cu / n, 3), fmt(cd / n, 1), fmt(bu / n, 3),
               fmt(bd / n, 1)});
  }
  section(label + " — single flow (paper: th raises util, la cuts delay)");
  t.print();
}

void versus_cubic(const std::vector<Scenario>& set, const std::string& label) {
  Table t({"variant", "c-libra share", "b-libra share"});
  for (const Variant& v : variants()) {
    double cs = 0, bs = 0;
    for (const Scenario& base : set) {
      Scenario s = base;
      s.duration = sec(40);
      for (bool bbr_variant : {false, true}) {
        auto net = run_scenario(
            s, {{libra_with(v.utility, bbr_variant)},
                {zoo().factory("cubic")}}, 11);
        double libra_thr = net->flow(0).throughput_in(sec(10), sec(40));
        double cubic_thr = net->flow(1).throughput_in(sec(10), sec(40));
        double share = libra_thr / std::max(1.0, libra_thr + cubic_thr);
        (bbr_variant ? bs : cs) += share;
      }
    }
    auto n = static_cast<double>(set.size());
    t.add_row({v.label, fmt(cs / n, 3), fmt(bs / n, 3)});
  }
  section(label + " — bandwidth share vs one CUBIC flow (0.5 = fair; paper: "
                  "th-variants more aggressive)");
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  header("Fig. 11", "flexibility across utility-weight variants");
  single_flow(wired_set(), "Wired set");
  single_flow(cellular_set(), "Cellular set");
  versus_cubic(wired_set(), "Wired set");
  versus_cubic(cellular_set(), "Cellular set");
  return 0;
}
