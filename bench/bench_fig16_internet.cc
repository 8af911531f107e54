// Fig. 16 — "Live Internet" performance, reproduced over synthetic WAN path
// profiles standing in for the EC2 measurements (DESIGN.md substitutions):
// inter-continental (180 ms, 1.2% stochastic loss, capacity jitter) and
// intra-continental (40 ms, 0.2% loss). Throughput and delay are normalized
// as in the paper. Paper shape: CUBIC and Orca lose substantial throughput
// inter-continentally; Libra's Th/La variants trace a preference frontier.
#include "bench/common.h"

#include "core/factory.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Fig. 16", "synthetic-WAN (live-Internet stand-in) performance");

  auto libra_variant = [&](bool bbr_variant, UtilityParams up) -> CcaFactory {
    auto brain = zoo().brain("libra-rl");
    return [=]() -> std::unique_ptr<CongestionControl> {
      LibraParams p = bbr_variant ? b_libra_params() : c_libra_params();
      p.utility = up;
      return bbr_variant ? make_b_libra(brain, p)
                         : make_c_libra(brain, p);
    };
  };

  struct Entry {
    std::string name;
    CcaFactory factory;
  };
  std::vector<Entry> entries;
  for (const char* n : {"proteus", "bbr", "cubic", "orca"})
    entries.push_back({n, zoo().factory(n)});
  entries.push_back({"c-libra(th)", libra_variant(false, throughput_oriented(1))});
  entries.push_back({"c-libra(la)", libra_variant(false, latency_oriented(1))});
  entries.push_back({"b-libra", libra_variant(true, UtilityParams{})});

  for (Scenario s : {wan_inter_continental(), wan_intra_continental()}) {
    s.duration = sec(40);
    std::vector<Averaged> results;
    double max_thr = 0, min_delay = 1e18;
    for (auto& e : entries) {
      Averaged a = average_runs(s, e.factory, /*runs=*/2);
      max_thr = std::max(max_thr, a.throughput_bps);
      min_delay = std::min(min_delay, a.avg_delay_ms);
      results.push_back(a);
    }
    Table t({"cca", "norm. throughput", "norm. delay", "loss"});
    for (std::size_t i = 0; i < entries.size(); ++i) {
      t.add_row({entries[i].name, fmt(results[i].throughput_bps / max_thr, 3),
                 fmt(results[i].avg_delay_ms / min_delay, 3),
                 fmt_pct(results[i].loss_rate, 1)});
    }
    section(s.name + " (paper: cubic/orca drop throughput inter-continental; "
                     "libra variants span the frontier)");
    t.print();
  }
  return 0;
}
