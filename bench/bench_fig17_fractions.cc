// Fig. 17 — Fraction of control cycles whose winning decision was x_prev,
// x_rl or x_cl, for C-Libra and B-Libra over the step / cellular / wired
// scenarios. Paper shape: every decision kind matters; x_cl dominates but
// less so in wired (CUBIC's fill-drain cycles get vetoed) and x_rl helps
// most in cellular.
#include "bench/common.h"

#include "core/factory.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Fig. 17", "fraction of applied times for x_prev / x_rl / x_cl");

  auto brain = zoo().brain("libra-rl");
  struct Case {
    std::string label;
    Scenario scenario;
  };
  std::vector<Case> cases = {
      {"step", step_scenario()},
      {"cellular", lte_scenario(LteProfile::kWalking, "lte-walking")},
      {"wired", wired_scenario(48)},
  };

  for (bool bbr_variant : {false, true}) {
    Table t({"scenario", "x_prev", "x_rl", "x_cl", "cycles"});
    for (auto& c : cases) {
      Scenario s = c.scenario;
      s.duration = sec(40);
      DecisionCounts total;
      constexpr int kRuns = 3;
      for (int r = 0; r < kRuns; ++r) {
        auto cca = bbr_variant ? make_b_libra(brain)
                               : make_c_libra(brain);
        Libra* ptr = cca.get();
        Network net(s.link_config(400 + static_cast<std::uint64_t>(r)));
        net.add_flow(std::move(cca));
        net.run_until(s.duration);
        total.prev += ptr->decision_counts().prev;
        total.classic += ptr->decision_counts().classic;
        total.rl += ptr->decision_counts().rl;
      }
      auto tot = static_cast<double>(std::max<std::int64_t>(1, total.total()));
      t.add_row({c.label, fmt(total.prev / tot, 3), fmt(total.rl / tot, 3),
                 fmt(total.classic / tot, 3), std::to_string(total.total())});
    }
    section(bbr_variant ? "B-Libra" : "C-Libra");
    t.print();
  }
  return 0;
}
