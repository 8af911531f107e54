// Fig. 10 — Impact of stochastic packet loss (0-10%) on link utilization.
// Paper shape: CUBIC collapses as loss grows; B-Libra keeps >80% utilization
// at 10% loss; C-Libra recovers CUBIC's spurious reductions via x_rl/x_prev
// and beats both CUBIC and Orca.
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace libra;
  using namespace libra::benchx;
  parse_args(argc, argv);
  header("Fig. 10", "stochastic-loss sweep: link utilization");

  const std::vector<double> losses = {0.0, 0.02, 0.04, 0.06, 0.08, 0.10};
  const std::vector<std::string> ccas = {"proteus", "bbr", "copa", "cubic",
                                         "orca", "c-libra", "b-libra"};
  const int runs = 2;

  // One flat (loss x cca x seed) batch through run_many — same seeds as the
  // old per-point average_runs loop (base 1000), identical printed numbers.
  std::vector<RunRequest> batch;
  for (double loss : losses) {
    for (const std::string& name : ccas) {
      Scenario s = wired_scenario(48, msec(30));
      s.link.stochastic_loss = loss;
      s.duration = sec(30);
      for (int r = 0; r < runs; ++r) {
        batch.push_back(RunRequest::single(
            s, zoo().factory(name), 1000 + static_cast<std::uint64_t>(r)));
      }
    }
  }
  RunManyOptions opts;
  opts.on_progress = [](const RunProgress& p) {
    if (p.done % 10 == 0 || p.done == p.total)
      std::cerr << "fig10: " << p.done << "/" << p.total << " runs ("
                << static_cast<int>(p.completed_flow_seconds) << "/"
                << static_cast<int>(p.total_flow_seconds) << " flow-s)\n";
  };
  std::vector<RunSummary> results = run_many(batch, default_pool(), opts);

  Table t({"loss", "proteus", "bbr", "copa", "cubic", "orca", "c-libra",
           "b-libra"});
  std::size_t idx = 0;
  for (double loss : losses) {
    std::vector<std::string> row{fmt_pct(loss, 0)};
    for (std::size_t c = 0; c < ccas.size(); ++c) {
      double util = 0;
      for (int r = 0; r < runs; ++r, ++idx) util += results[idx].link_utilization;
      row.push_back(fmt(util / runs, 3));
    }
    t.add_row(row);
  }
  section("Utilization vs stochastic loss "
          "(paper: cubic collapses, b-libra ~0.82 at 10%)");
  t.print();
  return 0;
}
