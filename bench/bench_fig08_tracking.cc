// Fig. 8 — Following a time-varying LTE (driving / user-movement) capacity.
// Prints per-second capacity and achieved throughput for C-Libra, B-Libra,
// Proteus, CUBIC, BBR and Orca plus a tracking-error summary. Paper shape:
// Libra follows the capacity; CUBIC overshoots after dips, Proteus lags.
//
// Flags: --duration=SECS lengthens the run; --record=PREFIX streams each
// CCA's flight-recorder trace to PREFIX<cca>.jsonl (tools/trace_summarize
// reproduces the run-summary table below from those traces); --json[=PATH]
// emits the tables as JSON.
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace libra;
  using namespace libra::benchx;
  BenchArgs args = parse_args(argc, argv);
  header("Fig. 8", "tracking a varying LTE capacity (driving profile)");

  Scenario s = lte_scenario(LteProfile::kDriving, "lte-driving");
  s.duration = args.duration > 0 ? args.duration : sec(35);
  auto trace = s.make_trace(9);
  const int secs = static_cast<int>(s.duration / sec(1));
  const SimDuration warmup = sec(2);

  const std::vector<std::string> ccas = {"c-libra", "b-libra", "proteus",
                                         "cubic", "bbr", "orca"};
  std::vector<std::vector<double>> series;
  std::vector<RunSummary> summaries;
  for (const std::string& name : ccas) {
    ObsOptions obs;
    if (!args.record_prefix.empty()) {
      obs.record = true;
      obs.trace_path = args.record_prefix + name + ".jsonl";
    }
    auto net = run_scenario(s, {{zoo().factory(name)}}, 9, obs);
    series.push_back(net->flow(0).rate_bins(sec(1), 0, s.duration));
    summaries.push_back(summarize(*net, warmup, s.duration));
  }

  Table t({"t(s)", "capacity", "c-libra", "b-libra", "proteus", "cubic", "bbr",
           "orca"});
  for (int k = 0; k < secs; ++k) {
    std::vector<std::string> row{std::to_string(k),
                                 fmt(trace->average_rate(sec(k), sec(k + 1)) / 1e6, 1)};
    for (auto& ser : series) row.push_back(fmt(ser[static_cast<std::size_t>(k)] / 1e6, 1));
    t.add_row(row);
  }
  t.print();

  // RMS tracking error relative to capacity, over the steady window.
  Table err({"cca", "rms error (Mbps)", "mean util"});
  for (std::size_t i = 0; i < ccas.size(); ++i) {
    double sq = 0, util = 0;
    int n = 0;
    for (int k = 5; k < secs; ++k) {
      double cap = trace->average_rate(sec(k), sec(k + 1)) / 1e6;
      double thr = series[i][static_cast<std::size_t>(k)] / 1e6;
      sq += (cap - thr) * (cap - thr);
      util += cap > 0 ? std::min(1.0, thr / cap) : 0;
      ++n;
    }
    err.add_row({ccas[i], fmt(std::sqrt(sq / n), 2), fmt(util / n, 3)});
  }
  section("Tracking summary (paper: Libra lowest error at high utilization)");
  err.print();

  // Per-run summary over [warmup, duration) — the same window and ACK stream
  // a recorded trace holds, so `trace_summarize --warmup=2` on a --record
  // file reproduces these numbers to within rounding.
  Table sum({"cca", "throughput (Mbps)", "avg delay (ms)", "loss"});
  for (std::size_t i = 0; i < ccas.size(); ++i) {
    sum.add_row({ccas[i], fmt(summaries[i].total_throughput_bps / 1e6, 2),
                 fmt(summaries[i].avg_delay_ms, 1),
                 fmt_pct(summaries[i].flows[0].loss_rate, 2)});
  }
  section("Run summary over [2s, end)");
  sum.print();
  return 0;
}
