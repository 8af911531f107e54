// Fig. 12 — CPU overhead vs link capacity (10-200 Mbps). Paper shape:
// Libra's overhead tracks its underlying classic CCAs and is a large
// reduction over Orca / Indigo / Copa / Proteus (up to 92%).
#include "bench/common.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Fig. 12", "CPU overhead vs link capacity");

  const std::vector<double> capacities = {10, 20, 30, 50, 100, 200};
  const std::vector<std::string> ccas = {"cubic",  "bbr",  "c-libra", "b-libra",
                                         "orca",   "indigo", "copa",  "proteus"};

  std::vector<std::vector<double>> cpu(ccas.size(),
                                       std::vector<double>(capacities.size()));
  for (std::size_t ci = 0; ci < ccas.size(); ++ci) {
    CcaFactory inner = wide_zoo().factory(ccas[ci]);
    for (std::size_t ki = 0; ki < capacities.size(); ++ki) {
      Scenario s = wired_scenario(capacities[ki], msec(30),
                                  static_cast<std::int64_t>(capacities[ki] * 1e6 / 8 * 0.03));
      s.duration = sec(20);
      auto meter = std::make_shared<OverheadMeter>();
      run_scenario(s,
                   {{[&] { return std::make_unique<MeteredCca>(inner(), meter); }}},
                   1);
      cpu[ci][ki] = meter->cpu_per_sim_second(s.duration);
    }
  }

  double max_cpu = 0;
  for (auto& row : cpu)
    for (double v : row) max_cpu = std::max(max_cpu, v);

  Table t({"cca", "10M", "20M", "30M", "50M", "100M", "200M", "avg (norm)"});
  std::vector<double> avgs(ccas.size());
  for (std::size_t ci = 0; ci < ccas.size(); ++ci) {
    std::vector<std::string> row{ccas[ci]};
    double sum = 0;
    for (std::size_t ki = 0; ki < capacities.size(); ++ki) {
      row.push_back(fmt(cpu[ci][ki] / max_cpu, 3));
      sum += cpu[ci][ki];
    }
    avgs[ci] = sum / capacities.size();
    row.push_back(fmt(avgs[ci] / max_cpu, 3));
    t.add_row(row);
  }
  section("Normalized decision-CPU per capacity "
          "(paper: libra ~classic-level, big cuts vs learned)");
  t.print();

  // Reduction of C-Libra vs each learned competitor (the paper's "47-92%").
  auto idx = [&](const std::string& n) {
    return static_cast<std::size_t>(
        std::find(ccas.begin(), ccas.end(), n) - ccas.begin());
  };
  Table red({"vs", "c-libra reduction"});
  for (const char* other : {"orca", "indigo", "copa", "proteus"}) {
    double r = 1.0 - avgs[idx("c-libra")] / std::max(1e-12, avgs[idx(other)]);
    red.add_row({other, fmt_pct(r, 0)});
  }
  red.print();
  return 0;
}
