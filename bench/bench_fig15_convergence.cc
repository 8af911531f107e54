// Fig. 15 + Tab. 5 — Convergence: three same-CCA flows start 5 s apart on a
// 48 Mbps / 100 ms / 1 BDP link. Prints each flow's throughput timeline and
// the Tab. 5 metrics for the third flow (convergence time to a stable
// +/-25% band held 5 s, stddev after convergence, mean after convergence).
//
// Needs more than a RunSummary (per-flow rate bins over time), so each
// RunRequest extracts its figures through the `inspect` hook — run on the
// worker thread against the completed Network, into a slot only that request
// touches — letting the per-CCA runs still fan across the pool.
#include "bench/common.h"

#include "stats/convergence.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Fig. 15 + Tab. 5", "three staggered flows: convergence");

  Scenario s = wired_scenario(48, msec(100), 48e6 / 8 * 0.1);
  s.duration = sec(50);

  const std::vector<std::string> ccas = {"bbr",     "cubic",  "modified-rl",
                                         "indigo",  "proteus", "orca",
                                         "c-libra", "b-libra"};

  struct ConvFigures {
    std::vector<std::vector<double>> bins;  // 2 s timeline per flow
    ConvergenceResult third;                // Tab. 5 metrics, flow 3
  };
  std::vector<ConvFigures> figures(ccas.size());

  std::vector<RunRequest> reqs;
  for (std::size_t ci = 0; ci < ccas.size(); ++ci) {
    CcaFactory factory = zoo().factory(ccas[ci]);
    RunRequest req;
    req.scenario = s;
    req.flows = {{factory, 0}, {factory, sec(5)}, {factory, sec(10)}};
    req.seed = 17;
    ConvFigures* out = &figures[ci];
    req.inspect = [out, &s](const Network& net) {
      for (int f = 0; f < 3; ++f)
        out->bins.push_back(net.flow(f).rate_bins(sec(2), 0, s.duration));
      // Tab. 5 metrics on the third flow, from its entry at 10 s.
      auto fine = net.flow(2).rate_bins(msec(500), sec(10), s.duration);
      out->third = analyze_convergence(fine, msec(500));
    };
    reqs.push_back(std::move(req));
  }
  run_many(reqs, default_pool());

  Table summary({"cca", "conv. time", "thr stddev (Mbps)", "avg thr (Mbps)"});
  for (std::size_t ci = 0; ci < ccas.size(); ++ci) {
    const ConvFigures& fig = figures[ci];

    Table t({"t(s)", "flow1", "flow2", "flow3"});
    for (int k = 0; k < 25; ++k) {
      t.add_row({std::to_string(2 * k), fmt(fig.bins[0][static_cast<std::size_t>(k)] / 1e6, 1),
                 fmt(fig.bins[1][static_cast<std::size_t>(k)] / 1e6, 1),
                 fmt(fig.bins[2][static_cast<std::size_t>(k)] / 1e6, 1)});
    }
    section(ccas[ci]);
    t.print();

    const ConvergenceResult& res = fig.third;
    summary.add_row({ccas[ci],
                     res.converged ? fmt(to_seconds(res.convergence_time), 1) + "s" : "-",
                     res.converged ? fmt(res.stddev_after / 1e6, 2) : "-",
                     res.converged ? fmt(res.mean_after / 1e6, 1) : "-"});
  }

  section("Tab. 5 — third flow convergence metrics "
          "(paper: libra fastest, mod-rl never converges)");
  summary.print();
  return 0;
}
