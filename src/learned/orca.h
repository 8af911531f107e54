// Orca (Abbasloo et al., SIGCOMM 2020): a two-level design where CUBIC runs
// underneath and a DRL agent periodically *overwrites* the congestion window
// with cwnd * 2^a, a in [-2, 2]. The paper's key observation about Orca —
// occasional inappropriate DRL multipliers causing severe rate drops — arises
// here naturally from the stochastic policy.
#pragma once

#include <memory>

#include "classic/cubic.h"
#include "learned/monitor.h"
#include "learned/rl_cca.h"

namespace libra {

struct OrcaParams {
  /// Floor on the monitoring period; the effective period is
  /// max(decision_period, smoothed RTT), as in Orca's max(20 ms, RTT).
  SimDuration decision_period = msec(20);
  double action_scale = 2.0;                // cwnd multiplier in [1/4, 4]
  /// Records transitions and updates the normalizer for the trainer
  /// (Trainer::train_parallel). Off: a frozen, deployed policy.
  bool training = false;
  /// Deployed Orca keeps sampling its stochastic policy; those occasional
  /// inappropriate multipliers are exactly the behaviour the paper's Fig. 2b
  /// safety analysis attributes Orca's variability to.
  bool stochastic_inference = true;
  /// Private seed for inference-time policy sampling (see RlCcaConfig).
  std::uint64_t sampling_seed = 0x02CA5EED;
  std::int64_t mss = kDefaultPacketBytes;
  /// Hard cap on the overridden window (kernels clamp cwnd too): without it,
  /// a run of sampled up-actions compounds 4x per period without bound.
  std::int64_t max_cwnd_bytes = 12'000 * kDefaultPacketBytes;
};

/// State features Orca reports to its agent (Tab. 1 rows ii, iv, vi, vii, ix).
std::vector<StateFeature> orca_state_space();

/// PPO config for Orca's agent: its feature frame stacked over Orca's history.
PpoConfig orca_ppo_config(std::uint64_t seed,
                          std::vector<std::size_t> hidden = {64, 64});

/// Builds a brain with the dimensionality Orca's feature set requires.
std::shared_ptr<RlBrain> make_orca_brain(std::uint64_t seed = 13);

class Orca final : public CongestionControl {
 public:
  Orca(OrcaParams params, std::shared_ptr<RlBrain> brain);

  void on_packet_sent(const SendEvent& ev) override;
  void on_ack(const AckEvent& ack) override;
  void on_loss(const LossEvent& loss) override;
  void on_tick(SimTime now) override;

  RateBps pacing_rate() const override { return 0; }
  std::int64_t cwnd_bytes() const override { return cubic_.cwnd_bytes(); }
  std::string name() const override { return "orca"; }
  std::int64_t memory_bytes() const override {
    return brain_->agent.memory_bytes() + 2048;
  }

  double episode_reward() const { return episode_reward_; }
  int episode_steps() const { return episode_steps_; }

 private:
  void maybe_decide(SimTime now);
  Vector build_state(const MiReport& r);

  OrcaParams params_;
  std::shared_ptr<RlBrain> brain_;
  Rng sample_rng_{0x02CA5EED};
  Cubic cubic_;
  MiCollector collector_;
  RingBuffer<Vector> history_;
  SimTime next_decision_ = 0;
  SimDuration srtt_ = 0;
  double x_max_bps_ = mbps(1);
  double d_min_s_ = 0;
  RateBps current_rate_bps_ = 0;
  double episode_reward_ = 0;
  int episode_steps_ = 0;
};

}  // namespace libra
