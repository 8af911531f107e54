#include "learned/rl_cca.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "stats/utility_fn.h"

namespace libra {

std::vector<StateFeature> libra_state_space() {
  return {StateFeature::kSendRate, StateFeature::kLossRate,
          StateFeature::kRttGradient, StateFeature::kDeliveryRate};
}

std::vector<StateFeature> baseline_state_space() {
  return {StateFeature::kSendRate, StateFeature::kRttAndMinRtt,
          StateFeature::kLossRate, StateFeature::kRttGradient,
          StateFeature::kDeliveryRate};
}

std::size_t feature_frame_size(const std::vector<StateFeature>& features) {
  std::size_t n = 0;
  for (StateFeature f : features)
    n += (f == StateFeature::kRttAndMinRtt) ? 2 : 1;
  return n;
}

PpoConfig make_ppo_config(const RlCcaConfig& cfg, std::uint64_t seed,
                          std::vector<std::size_t> hidden) {
  PpoConfig ppo;
  ppo.state_dim = feature_frame_size(cfg.features) * cfg.history;
  ppo.hidden = std::move(hidden);
  ppo.seed = seed;
  return ppo;
}

void save_brain(const RlBrain& brain, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_brain: cannot open " + path);
  brain.agent.save(out);
  brain.normalizer.save(out);
}

bool load_brain(RlBrain& brain, const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  brain.agent.load(in);
  brain.normalizer.load(in);
  // save_brain ends the file with a newline. Without it, a file cut inside
  // its last number would parse, with that number shortened.
  if (in.get() != '\n') throw std::runtime_error("load_brain: truncated file " + path);
  return true;
}

RlCca::RlCca(RlCcaConfig config, std::shared_ptr<RlBrain> brain)
    : config_(std::move(config)),
      brain_(std::move(brain)),
      sample_rng_(config_.sampling_seed),
      history_(config_.history),
      rate_(config_.initial_rate) {
  if (!brain_) throw std::invalid_argument("RlCca: brain required");
  std::size_t want = feature_frame_size(config_.features) * config_.history;
  if (brain_->agent.config().state_dim != want)
    throw std::invalid_argument("RlCca: brain state_dim does not match feature set");
}

void RlCca::on_packet_sent(const SendEvent& ev) { collector_.on_send(ev); }

void RlCca::on_ack(const AckEvent& ack) {
  collector_.on_ack(ack);
  srtt_ = srtt_ == 0 ? ack.rtt : srtt_ + (ack.rtt - srtt_) / 8;
  maybe_close_mi(ack.now);
}

void RlCca::on_loss(const LossEvent& loss) { collector_.on_loss(loss); }

void RlCca::on_tick(SimTime now) { maybe_close_mi(now); }

std::int64_t RlCca::cwnd_bytes() const {
  // Cap inflight at two rate-BDPs as a safety valve (the pacer is the real
  // control); before any RTT estimate let the pacer run free.
  if (srtt_ <= 0) return kInfiniteCwnd;
  auto bdp = static_cast<std::int64_t>(rate_ / 8.0 * to_seconds(srtt_));
  return std::max<std::int64_t>(2 * bdp, 4 * kDefaultPacketBytes);
}

void RlCca::force_rate(RateBps rate) {
  rate_ = std::clamp(rate, config_.min_rate, config_.max_rate);
}

Vector RlCca::build_frame(const MiReport& r) const {
  Vector f;
  f.reserve(feature_frame_size(config_.features));
  for (StateFeature feat : config_.features) {
    switch (feat) {
      case StateFeature::kAckGapEwma: f.push_back(r.ack_gap_ewma_s * 1e3); break;
      case StateFeature::kSendGapEwma: f.push_back(r.send_gap_ewma_s * 1e3); break;
      case StateFeature::kRttRatio:
        f.push_back(r.min_rtt_s > 0 ? r.last_rtt_s / r.min_rtt_s : 1.0);
        break;
      case StateFeature::kSendRate: f.push_back(to_mbps(rate_)); break;
      case StateFeature::kSentAckedRatio: f.push_back(r.sent_acked_ratio); break;
      case StateFeature::kRttAndMinRtt:
        f.push_back(r.last_rtt_s * 1e3);
        f.push_back(r.min_rtt_s * 1e3);
        break;
      case StateFeature::kLossRate: f.push_back(r.loss_rate); break;
      case StateFeature::kRttGradient: f.push_back(r.rtt_gradient); break;
      case StateFeature::kDeliveryRate: f.push_back(to_mbps(r.avg_delivery_bps)); break;
    }
  }
  return f;
}

double RlCca::compute_reward(const MiReport& r) {
  if (config_.reward_is_eq1_utility) {
    // Modified-RL benchmark: the raw Eq. 1 utility (scaled into a reward-
    // friendly magnitude) replaces the normalized reward.
    UtilityParams up;
    double u = utility(up, r.throughput_bps / 1e6, r.rtt_gradient, r.loss_rate);
    // Bounded squash: Eq. 1's raw magnitude is dominated by RTT-gradient
    // noise (the beta=900 term), which as a raw RL reward collapses the
    // policy; squashing preserves the ordering Eq. 1 defines while keeping
    // the reward scale learnable.
    double reward = 2.0 * u / (10.0 + std::abs(u));
    if (config_.reward_mode == RewardMode::kDelta) {
      double abs = reward;
      reward = have_prev_r_ ? abs - prev_r_ : 0.0;
      prev_r_ = abs;
      have_prev_r_ = true;
    }
    return reward;
  }
  // Alg. 2: r_t = w1*x/x_max - w2*d/d_min - w3*L, with running normalizers.
  x_max_bps_ = std::max(x_max_bps_, r.throughput_bps);
  if (r.min_rtt_s > 0 && (d_min_s_ == 0 || r.min_rtt_s < d_min_s_))
    d_min_s_ = r.min_rtt_s;
  double d_norm = (d_min_s_ > 0 && r.avg_rtt_s > 0) ? r.avg_rtt_s / d_min_s_ : 1.0;
  double loss_term = config_.reward_includes_loss ? config_.w3 * r.loss_rate : 0.0;

  // Throughput normalization differs by reward mode. The delta design uses
  // the running max (Alg. 2): the *difference* of the ratcheting ratio still
  // rewards growth. For the absolute design (Aurora/Orca style) the running
  // max is degenerate — any constant rate saturates its own maximum — so a
  // fixed scale keeps absolute throughput rewarded.
  double thr_term = config_.reward_mode == RewardMode::kDelta
                        ? r.throughput_bps / x_max_bps_
                        : r.throughput_bps / mbps(100);
  // Penalize *excess* delay (d/d_min - 1): with the raw ratio (>= 1) an
  // absolute-reward agent's laziest policy (minimum rate, zero queue) would
  // dominate everything that has to cross a transient queue to ramp up. The
  // shift is invisible to the delta design (constants cancel in r_t-r_{t-1}).
  double rt = config_.w1 * thr_term - config_.w2 * (d_norm - 1.0) - loss_term;

  double reward = rt;
  if (config_.reward_mode == RewardMode::kDelta) {
    reward = have_prev_r_ ? rt - prev_r_ : 0.0;
  }
  prev_r_ = rt;
  have_prev_r_ = true;
  return reward;
}

void RlCca::apply_action(double a) {
  a = std::clamp(a, -config_.action_scale, config_.action_scale);
  RateBps next = rate_;
  switch (config_.action_mode) {
    case ActionMode::kAiad:
      next = rate_ + a * config_.aiad_step;
      break;
    case ActionMode::kMimdAurora:
      next = a >= 0 ? rate_ * (1.0 + config_.aurora_delta * a)
                    : rate_ / (1.0 - config_.aurora_delta * a);
      break;
    case ActionMode::kMimdOrca:
      next = rate_ * std::exp2(a);
      break;
  }
  rate_ = std::clamp(next, config_.min_rate, config_.max_rate);
}

void RlCca::external_begin(SimTime now, RateBps base_rate) {
  collector_.finish(now);  // discard anything accumulated outside the cycle
  force_rate(base_rate);
}

RateBps RlCca::external_decide(SimTime now) {
  if (!collector_.has_acks()) {
    collector_.finish(now);
    return rate_;  // hold the previous decision (Sec. 3 no-ACK rule)
  }
  learn_and_act(collector_.finish(now));
  return rate_;
}

void RlCca::maybe_close_mi(SimTime now) {
  if (config_.external_control) return;
  if (mi_end_ == 0) {
    mi_end_ = now + std::max(config_.min_mi,
                             config_.mi_duration > 0 ? config_.mi_duration : msec(50));
    return;
  }
  if (now < mi_end_) return;

  SimDuration next_mi = config_.mi_duration > 0
                            ? config_.mi_duration
                            : std::max(config_.min_mi, srtt_ > 0 ? srtt_ : msec(50));
  mi_end_ = now + next_mi;

  if (!collector_.has_acks()) {
    // Sec. 3: no feedback during the interval — keep the current decision and
    // do not charge the agent for an unobservable step.
    collector_.finish(now);
    return;
  }

  learn_and_act(collector_.finish(now));
}

void RlCca::learn_and_act(const MiReport& report) {
  double reward = compute_reward(report);
  episode_reward_ += reward;
  ++episode_steps_;
  if (config_.training) {
    brain_->agent.give_reward(reward);
  }

  Vector frame = build_frame(report);
  // The normalizer learns only while training; frozen deployed policies keep
  // the offline statistics. This also makes inference runs independent of
  // each other (no shared-brain writes), which the parallel experiment
  // engine's determinism guarantee relies on.
  if (config_.training) brain_->normalizer.update(frame);
  history_.push(brain_->normalizer.normalize(frame));

  // Stack h frames, zero-padding while the history warms up.
  std::size_t frame_dim = feature_frame_size(config_.features);
  Vector state(frame_dim * config_.history, 0.0);
  std::size_t pad = config_.history - history_.size();
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const Vector& f = history_.at(i);
    std::copy(f.begin(), f.end(), state.begin() +
              static_cast<std::ptrdiff_t>((pad + i) * frame_dim));
  }

  double action;
  if (config_.training) {
    action = brain_->agent.act(state);
  } else if (config_.stochastic_inference) {
    // Sample the policy with this instance's own RNG: the draw distribution
    // matches PpoAgent::act, but the stream is private, so concurrent
    // runs sharing a frozen brain stay race-free and per-run deterministic.
    action = brain_->agent.act_greedy(state) +
             brain_->agent.exploration_stddev() * sample_rng_.normal();
  } else {
    action = brain_->agent.act_greedy(state);
  }
  apply_action(action);
  // Trace code 1: one MI closed — the applied rate and the reward earned.
  record_cca_event(report.end, 1, rate_, reward);
}

}  // namespace libra
