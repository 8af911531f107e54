// Libra's optimized RL component (Sec. 4.2 / Alg. 2): state space
// (iv)(vii)(viii)(ix) found by the paper's search, MIMD x*2^a action,
// delta-reward with the loss term, PPO. Also the "Modified RL" benchmark —
// the same agent rewarded directly with Eq. 1's utility — used to show that
// the utility function alone does not buy convergence or fairness.
#pragma once

#include <memory>

#include "learned/rl_cca.h"

namespace libra {

inline RlCcaConfig libra_rl_config() {
  RlCcaConfig cfg;  // defaults are already the paper's optimized formulation
  cfg.name = "libra-rl";
  return cfg;
}

inline std::shared_ptr<RlBrain> make_libra_rl_brain(std::uint64_t seed = 17) {
  RlCcaConfig cfg = libra_rl_config();
  return std::make_shared<RlBrain>(make_ppo_config(cfg, seed),
                                   feature_frame_size(cfg.features));
}

inline std::unique_ptr<RlCca> make_libra_rl(std::shared_ptr<RlBrain> brain,
                                            bool training) {
  RlCcaConfig cfg = libra_rl_config();
  cfg.training = training;
  return std::make_unique<RlCca>(cfg, std::move(brain));
}

inline RlCcaConfig modified_rl_config() {
  RlCcaConfig cfg = libra_rl_config();
  cfg.reward_is_eq1_utility = true;
  cfg.reward_mode = RewardMode::kAbsolute;
  cfg.name = "modified-rl";
  return cfg;
}

inline std::unique_ptr<RlCca> make_modified_rl(std::shared_ptr<RlBrain> brain,
                                               bool training) {
  RlCcaConfig cfg = modified_rl_config();
  cfg.training = training;
  return std::make_unique<RlCca>(cfg, std::move(brain));
}

}  // namespace libra
