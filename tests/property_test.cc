// Property-based tests of the invariants the paper proves or relies on:
// Appendix A's game-theoretic properties of the utility function, the
// simulator's conservation laws, determinism, and the action-map algebra.
#include <gtest/gtest.h>

#include <cmath>

#include "classic/cubic.h"
#include "classic/newreno.h"
#include "sim/network.h"
#include "stats/fairness.h"
#include "stats/utility_fn.h"
#include "util/rng.h"

namespace libra {
namespace {

// ---------------------------------------------------------------------------
// Appendix A: with 0 < t < 1 and positive coefficients, each sender's utility
// is strictly concave in its own rate. Check the discrete second difference
// over random parameter draws and rates.
class UtilityConcavity : public ::testing::TestWithParam<int> {};

TEST_P(UtilityConcavity, SecondDifferenceNegative) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  UtilityParams p;
  p.t = rng.uniform(0.5, 0.99);
  p.alpha = rng.uniform(0.5, 3.0);
  p.beta = rng.uniform(100, 2000);
  p.gamma = rng.uniform(1, 30);
  double grad = rng.uniform(0.0, 0.2);
  double loss = rng.uniform(0.0, 0.2);
  double h = 0.5;
  for (double x = 1.0; x < 100.0; x *= 2.0) {
    double second = utility(p, x + h, grad, loss) - 2 * utility(p, x, grad, loss) +
                    utility(p, x - h, grad, loss);
    EXPECT_LT(second, 0.0) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDraws, UtilityConcavity, ::testing::Range(0, 20));

// Appendix A droptail model: L = 1 - C/S and dRTT/dt = (S-C)/C when S >= C.
// Theorem 4.1: at the symmetric point with S = C, no sender can increase its
// utility by unilateral deviation.
class NashEquilibrium : public ::testing::TestWithParam<int> {};

double droptail_utility(const UtilityParams& p, double xi, double x_others,
                        double capacity) {
  double total = xi + x_others;
  double loss = total >= capacity ? 1.0 - capacity / total : 0.0;
  double grad = total >= capacity ? (total - capacity) / capacity : 0.0;
  return utility(p, xi, grad, loss);
}

TEST_P(NashEquilibrium, UnilateralDeviationNeverWins) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  UtilityParams p;  // paper defaults
  int n = static_cast<int>(rng.uniform_int(2, 8));
  double capacity = rng.uniform(10.0, 100.0);  // Mbps
  double fair = capacity / n;
  double others = fair * (n - 1);

  double u_fair = droptail_utility(p, fair, others, capacity);
  for (double factor : {0.25, 0.5, 0.8, 0.95, 1.05, 1.25, 2.0, 4.0}) {
    double u_dev = droptail_utility(p, fair * factor, others, capacity);
    EXPECT_LE(u_dev, u_fair + 1e-9)
        << "n=" << n << " C=" << capacity << " factor=" << factor;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGames, NashEquilibrium, ::testing::Range(0, 20));

// Lemma A.1: there is no equilibrium with S < C — any sender can raise its
// utility by sending faster while the link is under-utilized.
TEST(NashEquilibrium, NoEquilibriumBelowCapacity) {
  UtilityParams p;
  double capacity = 48.0;
  for (double xi : {1.0, 5.0, 10.0}) {
    double others = 20.0;  // total stays below capacity after the increase
    double u = droptail_utility(p, xi, others, capacity);
    double u_up = droptail_utility(p, xi + 1.0, others, capacity);
    EXPECT_GT(u_up, u) << "xi=" << xi;
  }
}

// ---------------------------------------------------------------------------
// Simulator conservation: packets sent == acked + lost + in flight, for any
// CCA, loss rate, and buffer size.
struct ConservationCase {
  double loss;
  std::int64_t buffer;
  double rate_mbps;
};

class Conservation : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(Conservation, SentEqualsAckedPlusLostPlusInflight) {
  auto param = GetParam();
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(param.rate_mbps));
  cfg.buffer_bytes = param.buffer;
  cfg.propagation_delay = msec(10);
  cfg.stochastic_loss = param.loss;
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<NewReno>());
  net.add_flow(std::make_unique<Cubic>(), msec(500));
  net.run_until(sec(6));
  for (int i = 0; i < net.flow_count(); ++i) {
    const Sender& s = net.flow(i).sender();
    std::int64_t inflight = s.bytes_in_flight() / kDefaultPacketBytes;
    EXPECT_EQ(s.packets_sent(), s.packets_acked() + s.packets_lost() + inflight)
        << "flow " << i;
    EXPECT_GE(s.bytes_in_flight(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Conservation,
    ::testing::Values(ConservationCase{0.0, 150000, 24},
                      ConservationCase{0.02, 150000, 24},
                      ConservationCase{0.10, 30000, 12},
                      ConservationCase{0.0, 8000, 6},
                      ConservationCase{0.05, 1000000, 96}));

// ---------------------------------------------------------------------------
// Determinism: identical seeds => identical runs, across loss rates.
class Determinism : public ::testing::TestWithParam<double> {};

TEST_P(Determinism, IdenticalSeedsIdenticalRuns) {
  auto run = [&] {
    LinkConfig cfg;
    cfg.capacity = std::make_shared<ConstantTrace>(mbps(24));
    cfg.buffer_bytes = 100000;
    cfg.propagation_delay = msec(10);
    cfg.stochastic_loss = GetParam();
    cfg.seed = 77;
    Network net(std::move(cfg));
    net.add_flow(std::make_unique<Cubic>());
    net.run_until(sec(5));
    const Sender& s = net.flow(0).sender();
    return std::make_tuple(s.packets_sent(), s.packets_acked(), s.packets_lost(),
                           s.rtt_sum());
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(LossGrid, Determinism,
                         ::testing::Values(0.0, 0.01, 0.05, 0.10));

// ---------------------------------------------------------------------------
// Action-map algebra (Sec. 4.2): MIMD maps must be positive, monotone in the
// action, and symmetric (a and -a cancel).
class ActionMap : public ::testing::TestWithParam<double> {};

double mimd_orca(double rate, double a) { return rate * std::exp2(a); }
double mimd_aurora(double rate, double a, double delta = 0.025) {
  return a >= 0 ? rate * (1 + delta * a) : rate / (1 - delta * a);
}

TEST_P(ActionMap, OrcaMapSymmetricAndMonotone) {
  double a = GetParam();
  double rate = mbps(10);
  EXPECT_GT(mimd_orca(rate, a), 0);
  EXPECT_NEAR(mimd_orca(mimd_orca(rate, a), -a), rate, 1e-6);
  if (a > 0) {
    EXPECT_GT(mimd_orca(rate, a), rate);
  }
  if (a < 0) {
    EXPECT_LT(mimd_orca(rate, a), rate);
  }
}

TEST_P(ActionMap, AuroraMapSymmetricAndMonotone) {
  double a = GetParam();
  double rate = mbps(10);
  EXPECT_GT(mimd_aurora(rate, a), 0);
  EXPECT_NEAR(mimd_aurora(mimd_aurora(rate, a), -a), rate, 1.0);
  if (a > 0) {
    EXPECT_GT(mimd_aurora(rate, a), rate);
  }
  if (a < 0) {
    EXPECT_LT(mimd_aurora(rate, a), rate);
  }
}

INSTANTIATE_TEST_SUITE_P(Actions, ActionMap,
                         ::testing::Values(-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0));

TEST(ActionMap, OrcaBandMatchesPaper) {
  // a in [-2, 2] -> multiplier in [1/4, 4] (the paper's footnote 1).
  EXPECT_DOUBLE_EQ(mimd_orca(1.0, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(mimd_orca(1.0, -2.0), 0.25);
}

// ---------------------------------------------------------------------------
// Jain's index bounds: 1/n <= J <= 1 for any non-degenerate allocation.
class JainBounds : public ::testing::TestWithParam<int> {};

TEST_P(JainBounds, WithinTheoreticalRange) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  auto n = static_cast<std::size_t>(rng.uniform_int(2, 20));
  std::vector<double> rates(n);
  bool all_zero = true;
  for (double& r : rates) {
    r = rng.uniform(0.0, 100.0);
    all_zero &= r == 0.0;
  }
  if (all_zero) rates[0] = 1.0;
  double j = jain_index(rates);
  EXPECT_GE(j, 1.0 / static_cast<double>(n) - 1e-12);
  EXPECT_LE(j, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomAllocations, JainBounds, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Two identical loss-based flows sharing a droptail bottleneck approach a
// fair share (the classic-CCA property Libra inherits).
class ClassicFairness : public ::testing::TestWithParam<double> {};

TEST_P(ClassicFairness, TwoCubicFlowsShareFairly) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(GetParam()));
  cfg.buffer_bytes = 150000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<Cubic>());
  net.add_flow(std::make_unique<Cubic>());
  net.run_until(sec(30));
  double a = net.flow(0).throughput_in(sec(10), sec(30));
  double b = net.flow(1).throughput_in(sec(10), sec(30));
  EXPECT_GT(jain_index({a, b}), 0.9) << "a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(Capacities, ClassicFairness,
                         ::testing::Values(12.0, 24.0, 48.0));

}  // namespace
}  // namespace libra
