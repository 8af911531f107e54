// Factories for the Libra variants evaluated in the paper: C-Libra (CUBIC
// underneath, 1-RTT exploration/exploitation), B-Libra (BBR underneath,
// 3-RTT exploration/exploitation — Sec. 4.3), and Clean-Slate Libra.
#pragma once

#include <memory>

#include "classic/bbr.h"
#include "classic/cubic.h"
#include "core/libra.h"
#include "learned/libra_rl.h"

namespace libra {

inline LibraParams c_libra_params() {
  LibraParams p;
  p.exploration_rtts = 1.0;
  p.ei_rtts = 0.5;
  p.exploitation_rtts = 1.0;
  p.name = "c-libra";
  return p;
}

inline LibraParams b_libra_params() {
  LibraParams p;
  p.exploration_rtts = 3.0;  // inherits the first 3 RTTs of BBR's probe cycle
  p.ei_rtts = 0.5;
  p.exploitation_rtts = 3.0;
  p.name = "b-libra";
  return p;
}

/// Libra's RL component runs a frozen, offline-trained policy (inference
/// mode): the paper trains the RL CCA alone and deploys it inside Libra.
inline std::unique_ptr<RlCca> libra_rl_component(std::shared_ptr<RlBrain> brain) {
  RlCcaConfig cfg = libra_rl_config();
  cfg.external_control = true;  // Libra drives one decision per control cycle
  // x_rl stays a *sampled* policy output: Libra's evaluation stage is what
  // filters occasional bad draws (the framework's safety mechanism), so the
  // controller must face the same stochasticity the pure DRL CCAs deploy with.
  cfg.stochastic_inference = true;
  return std::make_unique<RlCca>(cfg, std::move(brain));
}

inline std::unique_ptr<Libra> make_c_libra(std::shared_ptr<RlBrain> brain,
                                           LibraParams params = c_libra_params()) {
  return std::make_unique<Libra>(params, std::make_unique<Cubic>(),
                                 libra_rl_component(std::move(brain)));
}

inline std::unique_ptr<Libra> make_b_libra(std::shared_ptr<RlBrain> brain,
                                           LibraParams params = b_libra_params()) {
  return std::make_unique<Libra>(params, std::make_unique<Bbr>(),
                                 libra_rl_component(std::move(brain)));
}

/// Sec. 7: Libra over an arbitrary classic CCA (Westwood, Illinois, ...).
/// CUBIC-like stage durations apply; window-based classics that implement
/// WindowAdjustable get base-rate resynchronization, others (rate-based or
/// model-based) keep their own state, as BBR does.
inline std::unique_ptr<Libra> make_libra_over(
    std::unique_ptr<CongestionControl> classic, std::shared_ptr<RlBrain> brain,
    LibraParams params = c_libra_params()) {
  params.name = "libra-" + classic->name();
  return std::make_unique<Libra>(params, std::move(classic),
                                 libra_rl_component(std::move(brain)));
}

inline std::unique_ptr<Libra> make_clean_slate_libra(std::shared_ptr<RlBrain> brain) {
  LibraParams p = c_libra_params();
  p.use_classic = false;
  p.name = "cl-libra";
  return std::make_unique<Libra>(p, nullptr, libra_rl_component(std::move(brain)));
}

}  // namespace libra
