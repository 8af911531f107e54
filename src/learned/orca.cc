#include "learned/orca.h"

#include <algorithm>
#include <cmath>

namespace libra {

namespace {
constexpr std::size_t kOrcaHistory = 8;
constexpr double kW1 = 1.0, kW2 = 0.5, kW3 = 10.0;
}  // namespace

std::vector<StateFeature> orca_state_space() {
  return {StateFeature::kSendGapEwma, StateFeature::kSendRate,
          StateFeature::kRttAndMinRtt, StateFeature::kLossRate,
          StateFeature::kDeliveryRate};
}

PpoConfig orca_ppo_config(std::uint64_t seed, std::vector<std::size_t> hidden) {
  PpoConfig ppo;
  ppo.state_dim = feature_frame_size(orca_state_space()) * kOrcaHistory;
  ppo.hidden = std::move(hidden);
  ppo.seed = seed;
  return ppo;
}

std::shared_ptr<RlBrain> make_orca_brain(std::uint64_t seed) {
  return std::make_shared<RlBrain>(orca_ppo_config(seed),
                                   feature_frame_size(orca_state_space()));
}

Orca::Orca(OrcaParams params, std::shared_ptr<RlBrain> brain)
    : params_(params), brain_(std::move(brain)), sample_rng_(params.sampling_seed),
      cubic_(CubicParams{.mss = params.mss}), history_(kOrcaHistory) {
  if (!brain_) throw std::invalid_argument("Orca: brain required");
}

void Orca::on_packet_sent(const SendEvent& ev) {
  collector_.on_send(ev);
  cubic_.on_packet_sent(ev);
}

void Orca::on_ack(const AckEvent& ack) {
  collector_.on_ack(ack);
  cubic_.on_ack(ack);
  if (ack.rtt > 0) {
    srtt_ = srtt_ == 0 ? ack.rtt : srtt_ + (ack.rtt - srtt_) / 8;
    current_rate_bps_ = static_cast<double>(cubic_.cwnd_bytes()) * 8.0 /
                        to_seconds(ack.rtt);
  }
  maybe_decide(ack.now);
}

void Orca::on_loss(const LossEvent& loss) {
  collector_.on_loss(loss);
  cubic_.on_loss(loss);
}

void Orca::on_tick(SimTime now) { maybe_decide(now); }

Vector Orca::build_state(const MiReport& r) {
  Vector frame;
  for (StateFeature feat : orca_state_space()) {
    switch (feat) {
      case StateFeature::kSendGapEwma: frame.push_back(r.send_gap_ewma_s * 1e3); break;
      case StateFeature::kSendRate: frame.push_back(to_mbps(current_rate_bps_)); break;
      case StateFeature::kRttAndMinRtt:
        frame.push_back(r.last_rtt_s * 1e3);
        frame.push_back(r.min_rtt_s * 1e3);
        break;
      case StateFeature::kLossRate: frame.push_back(r.loss_rate); break;
      case StateFeature::kDeliveryRate: frame.push_back(to_mbps(r.avg_delivery_bps)); break;
      default: break;
    }
  }
  // Frozen deployed policies keep their offline normalizer statistics (and
  // concurrent inference runs must not write to the shared brain).
  if (params_.training) brain_->normalizer.update(frame);
  history_.push(brain_->normalizer.normalize(frame));

  std::size_t frame_dim = feature_frame_size(orca_state_space());
  Vector state(frame_dim * kOrcaHistory, 0.0);
  std::size_t pad = kOrcaHistory - history_.size();
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const Vector& f = history_.at(i);
    std::copy(f.begin(), f.end(),
              state.begin() + static_cast<std::ptrdiff_t>((pad + i) * frame_dim));
  }
  return state;
}

void Orca::maybe_decide(SimTime now) {
  SimDuration period = std::max(params_.decision_period, srtt_);
  if (next_decision_ == 0) {
    next_decision_ = now + period;
    return;
  }
  if (now < next_decision_) return;
  next_decision_ = now + period;

  if (!collector_.has_acks()) {
    collector_.finish(now);
    return;
  }
  MiReport report = collector_.finish(now);

  // Orca's absolute reward: normalized throughput minus delay and loss terms.
  x_max_bps_ = std::max(x_max_bps_, report.throughput_bps);
  if (report.min_rtt_s > 0 && (d_min_s_ == 0 || report.min_rtt_s < d_min_s_))
    d_min_s_ = report.min_rtt_s;
  double d_norm = (d_min_s_ > 0 && report.avg_rtt_s > 0)
                      ? report.avg_rtt_s / d_min_s_ : 1.0;
  // Fixed throughput scale: an absolute reward normalized by the agent's own
  // running max would make any constant rate look optimal.
  double reward = kW1 * report.throughput_bps / mbps(100) -
                  kW2 * (d_norm - 1.0) - kW3 * report.loss_rate;
  episode_reward_ += reward;
  ++episode_steps_;
  if (params_.training) brain_->agent.give_reward(reward);

  Vector state = build_state(report);
  double a;
  if (params_.training) {
    a = brain_->agent.act(state);
  } else if (params_.stochastic_inference) {
    // Same draw distribution as PpoAgent::act, private RNG stream (keeps
    // parallel runs race-free and individually deterministic).
    a = brain_->agent.act_greedy(state) +
        brain_->agent.exploration_stddev() * sample_rng_.normal();
  } else {
    a = brain_->agent.act_greedy(state);
  }
  a = std::clamp(a, -params_.action_scale, params_.action_scale);

  // Apply cwnd' = cwnd * 2^a and let CUBIC continue from the new value.
  auto cwnd = static_cast<std::int64_t>(
      static_cast<double>(cubic_.cwnd_bytes()) * std::exp2(a));
  cubic_.set_cwnd_bytes(std::min(cwnd, params_.max_cwnd_bytes));
}

}  // namespace libra
