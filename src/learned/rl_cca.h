// Configurable RL congestion-control chassis.
//
// One class implements every RL-formulation variant studied in Sec. 4.2 of
// the paper: the nine state candidates of Tab. 1 (selectable per instance),
// AIAD vs the two MIMD action modes with a scale knob (Fig. 6), reward with
// or without the loss term (Tab. 3), and absolute-r vs delta-r rewards
// (Tab. 4). Libra's optimized RL component, Aurora, and "Modified RL" are all
// chassis configurations; Orca layers the same brain over CUBIC.
//
// The PPO agent and state normalizer live in a shared RlBrain so that one
// trained policy can drive many flows/episodes (training persists across
// simulator instances). A controller is in inference mode unless its config
// sets `training`; a training-mode controller only records transitions into
// its brain, and Trainer::train_parallel is the loop that learns from them.
#pragma once

#include <memory>

#include "learned/monitor.h"
#include "rl/normalizer.h"
#include "rl/ppo.h"
#include "sim/congestion_control.h"
#include "util/ring_buffer.h"

namespace libra {

/// The nine state candidates of Tab. 1 (indices match the paper).
enum class StateFeature {
  kAckGapEwma,       // (i)   EWMA of inter-ACK gap
  kSendGapEwma,      // (ii)  EWMA of inter-send gap
  kRttRatio,         // (iii) latest RTT / min RTT
  kSendRate,         // (iv)  current sending rate
  kSentAckedRatio,   // (v)   packets sent / acked in the MI
  kRttAndMinRtt,     // (vi)  current RTT and min RTT (two scalars)
  kLossRate,         // (vii) average loss rate
  kRttGradient,      // (viii) d(RTT)/dt
  kDeliveryRate,     // (ix)  average delivery rate
};

/// Libra's optimized state space: (iv), (vii), (viii), (ix) — the best
/// combination found by the paper's simulated-annealing search (Tab. 2).
std::vector<StateFeature> libra_state_space();
/// The search baseline: (iv), (vi), (vii), (viii), (ix).
std::vector<StateFeature> baseline_state_space();

enum class ActionMode {
  kAiad,        // x += a                      (RL-TCP, DRL-CC)
  kMimdAurora,  // x *= (1 + delta*a) / divide (Aurora)
  kMimdOrca,    // x *= 2^a                    (Orca; Libra uses this)
};

enum class RewardMode {
  kAbsolute,  // R_t = r_t        (Aurora, Orca)
  kDelta,     // R_t = r_t - r_{t-1}  (Libra, RL-TCP)
};

struct RlCcaConfig {
  std::vector<StateFeature> features = libra_state_space();
  std::size_t history = 8;          // h stacked feature frames
  ActionMode action_mode = ActionMode::kMimdOrca;
  double action_scale = 2.0;        // a in [-scale, scale]
  double aurora_delta = 0.025;      // Aurora's step-scaling factor
  double aiad_step = mbps(1);       // rate change per unit action in AIAD
  RewardMode reward_mode = RewardMode::kDelta;
  bool reward_includes_loss = true; // Tab. 3 ablation
  double w1 = 1.0, w2 = 0.5, w3 = 10.0;  // reward weights (Alg. 2)
  /// "Modified RL" benchmark: replace the reward with Libra's Eq. 1 utility
  /// computed on the MI statistics (shows Eq. 1 alone does not grant
  /// convergence/fairness — Remark 6).
  bool reward_is_eq1_utility = false;
  SimDuration mi_duration = 0;      // 0 => one smoothed RTT per MI
  SimDuration min_mi = msec(10);
  RateBps initial_rate = mbps(2.5);
  RateBps min_rate = kbps(80);
  RateBps max_rate = mbps(400);
  /// Sample actions and record transitions and normalizer statistics for
  /// Trainer::train_parallel. Off: a frozen, deployed policy.
  bool training = false;
  /// Inference-mode behaviour: sample the stochastic policy (how DRL CCAs
  /// actually deploy — source of the variability Fig. 2b studies) instead of
  /// taking the mean action.
  bool stochastic_inference = false;
  /// Seed for this instance's private inference-sampling stream (kept off the
  /// shared brain so parallel runs never contend on one RNG).
  std::uint64_t sampling_seed = 0xCCA5EED;
  /// When true the chassis never closes MIs on its own; a wrapping controller
  /// (Libra) drives decisions via external_begin()/external_decide().
  bool external_control = false;
  std::string name = "rl";
};

/// Long-lived learning state shared across flows/episodes. The normalizer is
/// per-feature-frame (the same statistics apply to every stacked frame).
struct RlBrain {
  RlBrain(PpoConfig ppo_config, std::size_t frame_dim)
      : agent(std::move(ppo_config)), normalizer(frame_dim) {}
  PpoAgent agent;
  RunningNormalizer normalizer;
};

/// Persists a brain (policy + normalizer) to `path`; parent dir must exist.
void save_brain(const RlBrain& brain, const std::string& path);
/// Restores a brain saved by save_brain; returns false if the file is absent.
/// Throws on dimensionality mismatch (stale cache for a changed config) and
/// on a truncated or corrupt file. A throw can leave `brain` partly
/// overwritten, so load into a brain that can be discarded.
bool load_brain(RlBrain& brain, const std::string& path);

/// Number of scalars contributed by one frame of the given feature set.
std::size_t feature_frame_size(const std::vector<StateFeature>& features);

/// Builds a PPO config whose state_dim matches `cfg`'s features x history.
PpoConfig make_ppo_config(const RlCcaConfig& cfg, std::uint64_t seed = 7,
                          std::vector<std::size_t> hidden = {64, 64});

class RlCca : public CongestionControl {
 public:
  RlCca(RlCcaConfig config, std::shared_ptr<RlBrain> brain);

  void on_packet_sent(const SendEvent& ev) override;
  void on_ack(const AckEvent& ack) override;
  void on_loss(const LossEvent& loss) override;
  void on_tick(SimTime now) override;

  RateBps pacing_rate() const override { return rate_; }
  std::int64_t cwnd_bytes() const override;
  std::string name() const override { return config_.name; }
  std::int64_t memory_bytes() const override {
    return brain_->agent.memory_bytes() + 1024;
  }

  /// External rate override (used by the Libra controller, which feeds the
  /// backup RL decision but applies its own base rate).
  void force_rate(RateBps rate);
  RateBps current_rate() const { return rate_; }

  /// External-control mode (Libra, Alg. 1): opens a measurement interval at
  /// the start of the exploration stage with the cycle's base rate.
  void external_begin(SimTime now, RateBps base_rate);
  /// Closes the interval and returns the agent's backup rate decision x_rl
  /// (base * 2^a). If no ACKs arrived during the interval the previous
  /// decision is held (Sec. 3).
  RateBps external_decide(SimTime now);

  /// Cumulative reward and MI count since the last reset (episode metrics).
  double episode_reward() const { return episode_reward_; }
  int episode_steps() const { return episode_steps_; }
  void reset_episode_metrics() { episode_reward_ = 0; episode_steps_ = 0; }

  RlBrain& brain() { return *brain_; }

 private:
  void maybe_close_mi(SimTime now);
  void learn_and_act(const MiReport& report);
  Vector build_frame(const MiReport& r) const;
  double compute_reward(const MiReport& r);
  void apply_action(double a);

  RlCcaConfig config_;
  std::shared_ptr<RlBrain> brain_;
  Rng sample_rng_{0xCCA5EED};
  MiCollector collector_;
  RingBuffer<Vector> history_;
  RateBps rate_;
  SimTime mi_end_ = 0;
  SimDuration srtt_ = 0;
  double prev_r_ = 0;
  bool have_prev_r_ = false;
  double x_max_bps_ = mbps(1);   // running max throughput (reward normalizer)
  double d_min_s_ = 0;           // running min delay (reward normalizer)
  double episode_reward_ = 0;
  int episode_steps_ = 0;
};

}  // namespace libra
