#include <gtest/gtest.h>

#include "trace/lte_model.h"
#include "trace/rate_trace.h"

namespace libra {
namespace {

TEST(ConstantTrace, AlwaysSameRate) {
  ConstantTrace t(mbps(48));
  EXPECT_DOUBLE_EQ(t.rate_at(0), mbps(48));
  EXPECT_DOUBLE_EQ(t.rate_at(sec(100)), mbps(48));
  EXPECT_DOUBLE_EQ(t.average_rate(0, sec(10)), mbps(48));
}

TEST(ConstantTrace, RejectsNonPositive) {
  EXPECT_THROW(ConstantTrace(0), std::invalid_argument);
  EXPECT_THROW(ConstantTrace(-1), std::invalid_argument);
}

TEST(PiecewiseTrace, LooksUpSegments) {
  PiecewiseTrace t({{0, mbps(10)}, {sec(1), mbps(20)}, {sec(2), mbps(5)}});
  EXPECT_DOUBLE_EQ(t.rate_at(0), mbps(10));
  EXPECT_DOUBLE_EQ(t.rate_at(msec(500)), mbps(10));
  EXPECT_DOUBLE_EQ(t.rate_at(sec(1)), mbps(20));
  EXPECT_DOUBLE_EQ(t.rate_at(msec(1500)), mbps(20));
  EXPECT_DOUBLE_EQ(t.rate_at(sec(5)), mbps(5));  // holds last
}

TEST(PiecewiseTrace, BeforeFirstSegmentUsesFirstRate) {
  PiecewiseTrace t({{sec(1), mbps(20)}});
  EXPECT_DOUBLE_EQ(t.rate_at(0), mbps(20));
}

TEST(PiecewiseTrace, LoopsWithPeriod) {
  PiecewiseTrace t({{0, mbps(10)}, {sec(1), mbps(20)}}, sec(2));
  EXPECT_DOUBLE_EQ(t.rate_at(sec(2)), mbps(10));
  EXPECT_DOUBLE_EQ(t.rate_at(sec(3)), mbps(20));
  EXPECT_DOUBLE_EQ(t.rate_at(sec(4) + msec(500)), mbps(10));
}

TEST(PiecewiseTrace, AverageRateIntegratesExactly) {
  PiecewiseTrace t({{0, mbps(10)}, {sec(1), mbps(30)}});
  // [0,2s): 1s at 10 + 1s at 30 -> mean 20.
  EXPECT_NEAR(t.average_rate(0, sec(2)), mbps(20), 1.0);
  EXPECT_NEAR(t.average_rate(msec(500), msec(1500)), mbps(20), 1.0);
}

TEST(PiecewiseTrace, AverageRateAcrossLoop) {
  PiecewiseTrace t({{0, mbps(10)}, {sec(1), mbps(30)}}, sec(2));
  EXPECT_NEAR(t.average_rate(0, sec(4)), mbps(20), 1.0);
}

TEST(PiecewiseTrace, Validation) {
  EXPECT_THROW(PiecewiseTrace({}), std::invalid_argument);
  EXPECT_THROW(PiecewiseTrace({{0, mbps(1)}, {0, mbps(2)}}), std::invalid_argument);
  EXPECT_THROW(PiecewiseTrace({{0, -1.0}}), std::invalid_argument);
  EXPECT_THROW(PiecewiseTrace({{0, mbps(1)}, {sec(2), mbps(2)}}, sec(1)),
               std::invalid_argument);
}

TEST(StepTrace, CyclesLevels) {
  auto t = make_step_trace({mbps(20), mbps(5)}, sec(10));
  EXPECT_DOUBLE_EQ(t->rate_at(sec(3)), mbps(20));
  EXPECT_DOUBLE_EQ(t->rate_at(sec(13)), mbps(5));
  EXPECT_DOUBLE_EQ(t->rate_at(sec(23)), mbps(20));  // wrapped
}

TEST(StepTrace, Validation) {
  EXPECT_THROW(make_step_trace({}, sec(1)), std::invalid_argument);
  EXPECT_THROW(make_step_trace({mbps(1)}, 0), std::invalid_argument);
}

TEST(LteModel, StaysInsideBand) {
  auto t = make_lte_trace(LteProfile::kDriving, sec(60), 7);
  LteModelParams p = lte_profile_params(LteProfile::kDriving);
  for (SimTime at = 0; at < sec(60); at += msec(100)) {
    EXPECT_GE(t->rate_at(at), p.min_rate);
    EXPECT_LE(t->rate_at(at), p.max_rate);
  }
}

TEST(LteModel, DeterministicForSeed) {
  auto a = make_lte_trace(LteProfile::kWalking, sec(30), 42);
  auto b = make_lte_trace(LteProfile::kWalking, sec(30), 42);
  for (SimTime at = 0; at < sec(30); at += msec(500))
    EXPECT_DOUBLE_EQ(a->rate_at(at), b->rate_at(at));
}

TEST(LteModel, SeedsProduceDifferentTraces) {
  auto a = make_lte_trace(LteProfile::kWalking, sec(30), 1);
  auto b = make_lte_trace(LteProfile::kWalking, sec(30), 2);
  bool differ = false;
  for (SimTime at = 0; at < sec(30); at += msec(500))
    differ |= a->rate_at(at) != b->rate_at(at);
  EXPECT_TRUE(differ);
}

// The defining property of the mobility profiles: variability grows from
// stationary to driving.
TEST(LteModel, VolatilityOrdering) {
  auto cov = [](LteProfile p) {
    auto t = make_lte_trace(p, sec(120), 5);
    double sum = 0, sq = 0;
    int n = 0;
    for (SimTime at = 0; at < sec(120); at += msec(100)) {
      double r = t->rate_at(at);
      sum += r;
      sq += r * r;
      ++n;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    return std::sqrt(std::max(0.0, var)) / mean;
  };
  double s = cov(LteProfile::kStationary);
  double w = cov(LteProfile::kWalking);
  double d = cov(LteProfile::kDriving);
  EXPECT_LT(s, w);
  EXPECT_LT(w, d);
}

TEST(LteModel, RejectsBadLength) {
  EXPECT_THROW(make_lte_trace(LteProfile::kWalking, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace libra
