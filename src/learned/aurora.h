// Aurora (Jay et al., ICML 2019) as a chassis configuration: MI-based deep-RL
// rate control with state {latency gradient, latency ratio, send/ack ratio}
// stacked over a 10-step history, Aurora's (1 +/- delta*a) MIMD action map,
// and an absolute (non-delta) reward.
#pragma once

#include <memory>

#include "learned/rl_cca.h"

namespace libra {

inline RlCcaConfig aurora_config() {
  RlCcaConfig cfg;
  cfg.features = {StateFeature::kRttGradient, StateFeature::kRttRatio,
                  StateFeature::kSentAckedRatio};
  cfg.history = 10;
  cfg.action_mode = ActionMode::kMimdAurora;
  cfg.action_scale = 4.0;  // Aurora's effective per-MI adjustment band
  cfg.aurora_delta = 0.025;
  cfg.reward_mode = RewardMode::kAbsolute;
  // Aurora's +/-2.5%-per-MI action map needs dozens of consistent up-steps to
  // ramp; starting mid-band keeps the (budget-constrained) training tractable.
  cfg.initial_rate = mbps(10);
  cfg.stochastic_inference = true;  // deployed Aurora keeps sampling its policy
  cfg.name = "aurora";
  return cfg;
}

inline std::unique_ptr<RlCca> make_aurora(std::shared_ptr<RlBrain> brain,
                                          bool training) {
  RlCcaConfig cfg = aurora_config();
  cfg.training = training;
  return std::make_unique<RlCca>(cfg, std::move(brain));
}

}  // namespace libra
