#include "harness/scenario.h"

namespace libra {

Scenario wired_scenario(double rate_mbps, SimDuration min_rtt,
                        std::int64_t buffer_bytes) {
  Scenario s;
  s.name = "wired-" + std::to_string(static_cast<int>(rate_mbps)) + "mbps";
  s.nominal_rate = mbps(rate_mbps);
  s.make_trace = [rate_mbps](std::uint64_t) {
    return std::make_shared<ConstantTrace>(mbps(rate_mbps));
  };
  s.link.propagation_delay = min_rtt / 2;
  s.link.buffer_bytes = buffer_bytes;
  return s;
}

Scenario lte_scenario(LteProfile profile, const std::string& label,
                      SimDuration min_rtt, std::int64_t buffer_bytes) {
  Scenario s;
  s.name = label;
  s.nominal_rate = lte_profile_params(profile).mean_rate;
  s.make_trace = [profile](std::uint64_t seed) -> std::shared_ptr<RateTrace> {
    return make_lte_trace(profile, sec(120), seed);
  };
  s.link.propagation_delay = min_rtt / 2;
  s.link.buffer_bytes = buffer_bytes;
  return s;
}

Scenario step_scenario() {
  Scenario s;
  s.name = "step";
  s.nominal_rate = mbps(12.5);
  s.make_trace = [](std::uint64_t) -> std::shared_ptr<RateTrace> {
    // Fig. 2(a)-style staircase including a 5 Mbps level (the point where
    // Orca's offline training range is exceeded).
    return make_step_trace({mbps(20), mbps(5), mbps(15), mbps(10), mbps(25)},
                           sec(10));
  };
  s.link.propagation_delay = msec(80) / 2;
  // 1 BDP at the 12.5 Mbps average: 12.5e6/8 * 0.08 = 125 KB.
  s.link.buffer_bytes = 125 * 1000;
  s.duration = sec(50);
  return s;
}

std::vector<Scenario> fig1_scenarios() {
  return {
      wired_scenario(24), wired_scenario(48), wired_scenario(96),
      lte_scenario(LteProfile::kStationary, "lte-stationary"),
      lte_scenario(LteProfile::kWalking, "lte-walking"),
      lte_scenario(LteProfile::kDriving, "lte-driving"),
  };
}

std::vector<Scenario> wired_set() {
  return {wired_scenario(12), wired_scenario(24), wired_scenario(48),
          wired_scenario(96)};
}

std::vector<Scenario> cellular_set() {
  // A fourth trace (bus-like: walking-band mean with driving-grade fades)
  // mirrors the paper's 4-trace cellular set.
  Scenario bus;
  bus.name = "lte-bus";
  LteModelParams p = lte_profile_params(LteProfile::kWalking);
  p.fade_probability = 0.025;
  p.fade_depth = 0.2;
  p.volatility = 0.17;
  bus.nominal_rate = p.mean_rate;
  bus.make_trace = [p](std::uint64_t seed) -> std::shared_ptr<RateTrace> {
    return make_lte_trace(p, sec(120), seed);
  };
  return {lte_scenario(LteProfile::kStationary, "lte-stationary"),
          lte_scenario(LteProfile::kWalking, "lte-walking"),
          lte_scenario(LteProfile::kDriving, "lte-driving"), bus};
}

Scenario wan_inter_continental() {
  Scenario s;
  s.name = "wan-inter";
  s.nominal_rate = mbps(40);
  s.make_trace = [](std::uint64_t seed) -> std::shared_ptr<RateTrace> {
    // Capacity jitter stands in for unknown queue-management and shaping
    // schemes along the path (Sec. 5.4).
    LteModelParams p;
    p.mean_rate = mbps(40);
    p.min_rate = mbps(8);
    p.max_rate = mbps(60);
    p.volatility = 0.08;
    p.reversion = 0.3;
    p.fade_probability = 0.004;
    p.fade_depth = 0.5;
    return make_lte_trace(p, sec(120), seed);
  };
  s.link.propagation_delay = msec(180) / 2;
  s.link.buffer_bytes = 600 * 1000;
  s.link.stochastic_loss = 0.012;
  return s;
}

Scenario wan_intra_continental() {
  Scenario s;
  s.name = "wan-intra";
  s.nominal_rate = mbps(80);
  s.make_trace = [](std::uint64_t seed) -> std::shared_ptr<RateTrace> {
    LteModelParams p;
    p.mean_rate = mbps(80);
    p.min_rate = mbps(30);
    p.max_rate = mbps(110);
    p.volatility = 0.04;
    p.reversion = 0.35;
    p.fade_probability = 0.001;
    p.fade_depth = 0.6;
    return make_lte_trace(p, sec(120), seed);
  };
  s.link.propagation_delay = msec(40) / 2;
  s.link.buffer_bytes = 400 * 1000;
  s.link.stochastic_loss = 0.002;
  return s;
}

Scenario satellite_scenario() {
  Scenario s;
  s.name = "satellite";
  s.nominal_rate = mbps(20);
  s.make_trace = [](std::uint64_t) -> std::shared_ptr<RateTrace> {
    return std::make_shared<ConstantTrace>(mbps(20));
  };
  s.link.propagation_delay = msec(600) / 2;
  s.link.buffer_bytes = 2 * 1000 * 1000;
  s.link.stochastic_loss = 0.03;
  s.duration = sec(90);
  return s;
}

Scenario fiveg_scenario() {
  Scenario s;
  s.name = "5g";
  s.nominal_rate = mbps(120);
  s.make_trace = [](std::uint64_t seed) -> std::shared_ptr<RateTrace> {
    // mmWave-style abrupt swings: high band with frequent deep blockage.
    LteModelParams p;
    p.mean_rate = mbps(150);
    p.min_rate = mbps(5);
    p.max_rate = mbps(300);
    p.volatility = 0.3;
    p.reversion = 0.15;
    p.fade_probability = 0.05;
    p.fade_depth = 0.1;
    p.fade_duration = msec(400);
    return make_lte_trace(p, sec(120), seed);
  };
  s.link.propagation_delay = msec(20) / 2;
  s.link.buffer_bytes = 800 * 1000;
  return s;
}

Scenario policed_wan_scenario(double rate_mbps, double policer_rate_mbps,
                              std::int64_t burst_bytes, SimTime policer_start) {
  Scenario s = wired_scenario(rate_mbps, msec(20));
  s.name = "policed-" + std::to_string(static_cast<int>(policer_rate_mbps));
  s.link.policer_rate = mbps(policer_rate_mbps);
  s.link.policer_burst_bytes = burst_bytes;
  s.link.policer_start = policer_start;
  s.duration = sec(30);
  return s;
}

}  // namespace libra
