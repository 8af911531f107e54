// Fig. 18 — Libra vs the offline "ideal" combination. C-Ideal is built by
// running CUBIC and Clean-Slate Libra separately on the same cellular trace
// and, for every time bin, taking the behaviour with the higher Eq. 1
// utility (B-Ideal likewise from BBR). Paper shape: Libra's online utility
// approaches — and in stretches exceeds — the offline ideal, because the two
// underlying CCAs interact (one resets the other's rate through evaluation).
#include "bench/common.h"

#include "core/factory.h"

namespace {
using namespace libra;

// Per-bin utility of an already-run flow.
std::vector<double> utility_series(const Flow& flow, SimDuration bin,
                                   SimDuration horizon) {
  UtilityParams up;
  std::vector<double> out;
  for (SimTime t = 0; t + bin <= horizon; t += bin) {
    double thr_mbps = flow.throughput_in(t, t + bin) / 1e6;
    // Bin-to-bin RTT trend as the gradient proxy.
    double rtt_now = flow.mean_rtt_in(t, t + bin);
    double rtt_prev = flow.mean_rtt_in(std::max<SimTime>(0, t - bin), t);
    double grad = (rtt_prev > 0 && rtt_now > 0)
                      ? (rtt_now - rtt_prev) / 1e3 / to_seconds(bin)
                      : 0.0;
    if (std::abs(grad) < 0.02) grad = 0.0;
    out.push_back(utility(up, thr_mbps, grad, flow.loss_rate_in(t, t + bin)));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Fig. 18", "utility vs the offline ideal combination (cellular)");

  Scenario s = lte_scenario(LteProfile::kWalking, "lte-walking");
  s.duration = sec(50);
  const SimDuration bin = sec(1);

  auto series_for = [&](const std::string& name) {
    auto net = run_scenario(s, {{zoo().factory(name)}}, 23);
    return utility_series(net->flow(0), bin, s.duration);
  };

  auto cubic_u = series_for("cubic");
  auto bbr_u = series_for("bbr");
  auto cl_u = series_for("cl-libra");
  auto c_libra_u = series_for("c-libra");
  auto b_libra_u = series_for("b-libra");

  // Offline ideals: per-bin max of the solo runs.
  std::vector<double> c_ideal(cubic_u.size()), b_ideal(cubic_u.size());
  for (std::size_t i = 0; i < cubic_u.size(); ++i) {
    c_ideal[i] = std::max(cubic_u[i], cl_u[i]);
    b_ideal[i] = std::max(bbr_u[i], cl_u[i]);
  }

  // Normalize all series jointly to [0, 1] as the paper does.
  double lo = 1e18, hi = -1e18;
  for (auto* v : {&c_libra_u, &c_ideal, &b_libra_u, &b_ideal}) {
    for (double x : *v) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  auto norm = [&](double x) { return hi > lo ? (x - lo) / (hi - lo) : 0.0; };

  Table t({"t(s)", "c-libra", "c-ideal", "b-libra", "b-ideal"});
  double sums[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < c_libra_u.size(); ++i) {
    t.add_row({std::to_string(i), fmt(norm(c_libra_u[i]), 2), fmt(norm(c_ideal[i]), 2),
               fmt(norm(b_libra_u[i]), 2), fmt(norm(b_ideal[i]), 2)});
    sums[0] += norm(c_libra_u[i]);
    sums[1] += norm(c_ideal[i]);
    sums[2] += norm(b_libra_u[i]);
    sums[3] += norm(b_ideal[i]);
  }
  t.print();

  auto n = static_cast<double>(c_libra_u.size());
  section("Mean normalized utility (paper: online Libra ~ideal, sometimes above)");
  Table m({"series", "mean"});
  m.add_row({"c-libra", fmt(sums[0] / n, 3)});
  m.add_row({"c-ideal", fmt(sums[1] / n, 3)});
  m.add_row({"b-libra", fmt(sums[2] / n, 3)});
  m.add_row({"b-ideal", fmt(sums[3] / n, 3)});
  m.print();
  return 0;
}
