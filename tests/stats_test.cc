#include <gtest/gtest.h>

#include "stats/cdf.h"
#include "stats/convergence.h"
#include "stats/fairness.h"
#include "stats/overhead.h"
#include "stats/summary.h"
#include "stats/utility_fn.h"

namespace libra {
namespace {

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.range(), 7.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Percentile, Basics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, Validation) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(Jain, PerfectFairness) {
  EXPECT_DOUBLE_EQ(jain_index({10, 10, 10}), 1.0);
}

TEST(Jain, TotalUnfairness) {
  // One flow hogging: index -> 1/n.
  EXPECT_NEAR(jain_index({100, 0, 0, 0}), 0.25, 1e-9);
}

TEST(Jain, IntermediateValue) {
  EXPECT_NEAR(jain_index({30, 10}), 0.8, 1e-9);
}

TEST(Jain, Validation) {
  EXPECT_THROW(jain_index({}), std::invalid_argument);
  EXPECT_THROW(jain_index({-1.0}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
}

TEST(Cdf, FractionBelowAndQuantile) {
  Cdf c;
  for (double v : {1.0, 2.0, 3.0, 4.0}) c.add(v);
  EXPECT_DOUBLE_EQ(c.fraction_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_below(4.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 4.0);
}

TEST(Cdf, Validation) {
  Cdf c;
  EXPECT_THROW(c.fraction_below(1.0), std::logic_error);
  c.add(1.0);
  EXPECT_THROW(c.quantile(1.5), std::invalid_argument);
}

TEST(Convergence, DetectsStableSignal) {
  // 2s of ramp then stable at 100 for the rest; bin = 500ms, hold = 5s.
  std::vector<double> bins;
  for (int i = 0; i < 4; ++i) bins.push_back(10.0 + i * 20);
  for (int i = 0; i < 16; ++i) bins.push_back(100.0);
  auto res = analyze_convergence(bins, msec(500));
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.convergence_time, sec(2));
  EXPECT_NEAR(res.mean_after, 100.0, 1e-9);
  EXPECT_NEAR(res.stddev_after, 0.0, 1e-9);
}

TEST(Convergence, RejectsOscillation) {
  std::vector<double> bins;
  for (int i = 0; i < 20; ++i) bins.push_back(i % 2 ? 150.0 : 50.0);
  auto res = analyze_convergence(bins, msec(500));
  EXPECT_FALSE(res.converged);
}

TEST(Convergence, ToleratesBandedNoise) {
  std::vector<double> bins;
  for (int i = 0; i < 20; ++i) bins.push_back(i % 2 ? 110.0 : 95.0);  // within 25%
  auto res = analyze_convergence(bins, msec(500));
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.convergence_time, 0);
}

TEST(Convergence, EmptyInput) {
  EXPECT_FALSE(analyze_convergence({}, msec(500)).converged);
}

TEST(OverheadMeter, AccumulatesScopes) {
  OverheadMeter m;
  {
    OverheadMeter::Scope s(m);
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(m.busy_nanoseconds(), 0);
  EXPECT_EQ(m.invocations(), 1);
  EXPECT_GT(m.cpu_per_sim_second(sec(1)), 0.0);
  m.reset();
  EXPECT_EQ(m.busy_nanoseconds(), 0);
}

TEST(UtilityFn, RewardsThroughput) {
  UtilityParams p;
  EXPECT_GT(utility(p, 20, 0, 0), utility(p, 10, 0, 0));
}

TEST(UtilityFn, PenalizesRttGradient) {
  UtilityParams p;
  EXPECT_LT(utility(p, 10, 0.1, 0), utility(p, 10, 0.0, 0));
  // Negative gradient (draining queue) is not rewarded, per the max(0, .).
  EXPECT_DOUBLE_EQ(utility(p, 10, -0.5, 0), utility(p, 10, 0.0, 0));
}

TEST(UtilityFn, PenalizesLoss) {
  UtilityParams p;
  EXPECT_LT(utility(p, 10, 0, 0.05), utility(p, 10, 0, 0.0));
}

TEST(UtilityFn, DefaultsMatchPaper) {
  UtilityParams p;
  EXPECT_DOUBLE_EQ(p.t, 0.9);
  EXPECT_DOUBLE_EQ(p.alpha, 1.0);
  EXPECT_DOUBLE_EQ(p.beta, 900.0);
  EXPECT_DOUBLE_EQ(p.gamma, 11.35);
}

TEST(UtilityFn, PreferencePresets) {
  EXPECT_DOUBLE_EQ(throughput_oriented(1).alpha, 2.0);
  EXPECT_DOUBLE_EQ(throughput_oriented(2).alpha, 3.0);
  EXPECT_DOUBLE_EQ(latency_oriented(1).beta, 1800.0);
  EXPECT_DOUBLE_EQ(latency_oriented(2).beta, 2700.0);
}

TEST(UtilityFn, Validation) {
  UtilityParams p;
  p.t = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = UtilityParams{};
  p.beta = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_THROW(utility({}, -1, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace libra
