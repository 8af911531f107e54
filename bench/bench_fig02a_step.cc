// Fig. 2(a) — Throughput over the step-scenario (capacity changes every 10 s,
// 80 ms min RTT, 1 BDP buffer) for Proteus, Clean-slate Libra, Libra and Orca.
// The paper's point: Orca cannot fill the 5 Mbps level (outside its training
// span) and Proteus re-converges slowly; Libra tracks every level.
#include "bench/common.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Fig. 2a", "throughput timeline over the step scenario");

  Scenario s = step_scenario();
  const std::vector<std::string> ccas = {"proteus", "cl-libra", "c-libra", "orca"};

  Table t({"t(s)", "capacity", "proteus", "cl-libra", "c-libra", "orca"});
  std::vector<std::vector<double>> series;
  auto trace = s.make_trace(1);
  for (const std::string& name : ccas) {
    auto net = run_scenario(s, {{zoo().factory(name)}}, 1);
    series.push_back(net->flow(0).rate_bins(sec(1), 0, s.duration));
  }
  for (int sec_i = 0; sec_i < 50; ++sec_i) {
    std::vector<std::string> row{std::to_string(sec_i),
                                 fmt(to_mbps(trace->rate_at(sec(sec_i))), 0)};
    for (auto& ser : series)
      row.push_back(fmt(ser[static_cast<std::size_t>(sec_i)] / 1e6, 1));
    t.add_row(row);
  }
  section("Throughput (Mbit/s) per second; capacity column = ground truth");
  t.print();

  // Quantify convergence to the 5 Mbps level (10-20 s).
  section("Mean throughput on the 5 Mbps level, 13-20 s (paper: Libra ~5, Orca below)");
  Table q({"cca", "mean Mbps"});
  for (std::size_t i = 0; i < ccas.size(); ++i) {
    double sum = 0;
    for (int k = 13; k < 20; ++k) sum += series[i][static_cast<std::size_t>(k)];
    q.add_row({ccas[i], fmt(sum / 7 / 1e6, 2)});
  }
  q.print();
  return 0;
}
