// Link-capacity traces.
//
// A RateTrace maps simulated time to the instantaneous capacity of the
// bottleneck link, replacing the Mahimahi packet-delivery traces used in the
// paper. Stochastic traces (LTE model) are materialized into a piecewise-
// constant series at generation time so that rate_at() is a pure lookup and
// a run is reproducible from its seed.
#pragma once

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/types.h"

namespace libra {

class RateTrace {
 public:
  virtual ~RateTrace() = default;

  /// Instantaneous capacity at time `t` (bits/second).
  virtual RateBps rate_at(SimTime t) const = 0;

  /// Average capacity over [t0, t1); used for link-utilization metrics.
  virtual RateBps average_rate(SimTime t0, SimTime t1) const = 0;

  virtual std::unique_ptr<RateTrace> clone() const = 0;
};

/// Fixed-capacity link.
class ConstantTrace final : public RateTrace {
 public:
  explicit ConstantTrace(RateBps rate) : rate_(rate) {
    if (rate <= 0) throw std::invalid_argument("ConstantTrace: rate must be > 0");
  }

  RateBps rate_at(SimTime) const override { return rate_; }
  RateBps average_rate(SimTime, SimTime) const override { return rate_; }
  std::unique_ptr<RateTrace> clone() const override {
    return std::make_unique<ConstantTrace>(rate_);
  }

 private:
  RateBps rate_;
};

/// Piecewise-constant capacity: sorted breakpoints, each holding from its
/// start time until the next. Time before the first breakpoint uses the first
/// segment's rate; time after the last repeats the trace cyclically if
/// `loop_period` > 0, else holds the last rate.
class PiecewiseTrace final : public RateTrace {
 public:
  struct Segment {
    SimTime start = 0;
    RateBps rate = 0;
  };

  explicit PiecewiseTrace(std::vector<Segment> segments, SimDuration loop_period = 0);

  RateBps rate_at(SimTime t) const override;
  RateBps average_rate(SimTime t0, SimTime t1) const override;
  std::unique_ptr<RateTrace> clone() const override {
    return std::make_unique<PiecewiseTrace>(*this);
  }

 private:
  SimTime fold(SimTime t) const;

  std::vector<Segment> segments_;
  SimDuration loop_period_;
};

/// The paper's Fig. 2(a) "step-scenario": capacity changes every
/// `step_duration`, cycling through `levels`.
std::unique_ptr<PiecewiseTrace> make_step_trace(const std::vector<RateBps>& levels,
                                                SimDuration step_duration);

}  // namespace libra
