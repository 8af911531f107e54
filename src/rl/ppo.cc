#include "rl/ppo.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "obs/profiler.h"
#include "util/thread_pool.h"

namespace libra {

namespace {
constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5*ln(2*pi)
}

PpoAgent::PpoAgent(PpoConfig config)
    : config_(std::move(config)), rng_(config_.seed), log_std_(config_.init_log_std) {
  if (config_.state_dim == 0) throw std::invalid_argument("PpoAgent: state_dim required");
  if (config_.minibatch == 0) throw std::invalid_argument("PpoAgent: minibatch required");
  std::vector<std::size_t> actor_sizes{config_.state_dim};
  actor_sizes.insert(actor_sizes.end(), config_.hidden.begin(), config_.hidden.end());
  actor_sizes.push_back(1);
  std::vector<std::size_t> critic_sizes = actor_sizes;

  actor_ = std::make_unique<Mlp>(actor_sizes, rng_);
  critic_ = std::make_unique<Mlp>(critic_sizes, rng_);
  actor_opt_ = std::make_unique<AdamOptimizer>(*actor_, AdamConfig{.learning_rate = config_.actor_lr});
  critic_opt_ = std::make_unique<AdamOptimizer>(*critic_, AdamConfig{.learning_rate = config_.critic_lr});
  buffer_.reserve(config_.horizon + 1);

  // Size every update() workspace up front: all dims are known here, so the
  // training loop never allocates (see the alloc-counting test).
  actor_ws_.configure(*actor_, config_.minibatch);
  critic_ws_.configure(*critic_, config_.minibatch);
  advantages_.reserve(config_.horizon + 1);
  returns_.reserve(config_.horizon + 1);
  order_.reserve(static_cast<std::size_t>(std::max(config_.epochs, 0)) *
                 (config_.horizon + 1));
  mb_action_.resize(config_.minibatch);
  mb_old_logp_.resize(config_.minibatch);
  mb_adv_.resize(config_.minibatch);
}

double PpoAgent::exploration_stddev() const { return std::exp(log_std_); }

double PpoAgent::log_prob(double action, double mean) const {
  double sd = std::exp(log_std_);
  double z = (action - mean) / sd;
  return -0.5 * z * z - log_std_ - kHalfLog2Pi;
}

double PpoAgent::act(const Vector& state) {
  if (state.size() != config_.state_dim)
    throw std::invalid_argument("PpoAgent::act: state dim mismatch");

  double value = critic_->evaluate1(state);
  double mean = actor_->evaluate1(state);
  double action = mean + std::exp(log_std_) * rng_.normal();

  PpoTransition t;
  t.state = state;
  t.action = action;
  t.log_prob = log_prob(action, mean);
  t.value = value;
  pending_ = std::move(t);
  return action;
}

double PpoAgent::act_greedy(const Vector& state) const {
  if (state.size() != config_.state_dim)
    throw std::invalid_argument("PpoAgent::act_greedy: state dim mismatch");
  return actor_->evaluate1(state);
}

void PpoAgent::give_reward(double reward, bool done) {
  if (!pending_) return;  // reward with no opened transition: drop
  pending_->reward = reward;
  pending_->done = done;
  buffer_.push_back(std::move(*pending_));
  pending_.reset();
}

void PpoAgent::copy_parameters_from(const PpoAgent& other) {
  actor_->copy_parameters_from(*other.actor_);
  critic_->copy_parameters_from(*other.critic_);
  log_std_ = other.log_std_;
}

std::vector<PpoTransition> PpoAgent::take_transitions(bool mark_final_done) {
  pending_.reset();
  if (mark_final_done && !buffer_.empty()) buffer_.back().done = true;
  std::vector<PpoTransition> out = std::move(buffer_);
  buffer_.clear();
  buffer_.reserve(config_.horizon + 1);
  return out;
}

void PpoAgent::ingest(std::vector<PpoTransition> batch, ThreadPool* pool) {
  for (PpoTransition& t : batch) {
    // Bootstrap from the incoming transition's recorded value: V(s_next) under
    // the policy that collected it.
    if (buffer_.size() >= config_.horizon) update(t.value, pool);
    buffer_.push_back(std::move(t));
  }
}

void PpoAgent::flush_update(double bootstrap_value, ThreadPool* pool) {
  update(bootstrap_value, pool);
}

void PpoAgent::update(double bootstrap_value, ThreadPool* pool) {
  PROF_SCOPE("ppo.update");
  const std::size_t n = buffer_.size();
  if (n == 0) return;

  {
    PROF_SCOPE("ppo.gae");
    // GAE-lambda advantages computed backward through the rollout. The vectors
    // live in reserved capacity (<= horizon), so no allocation.
    advantages_.resize(n);
    returns_.resize(n);
    double next_value = bootstrap_value;
    double gae = 0.0;
    for (std::size_t i = n; i-- > 0;) {
      const PpoTransition& t = buffer_[i];
      double not_done = t.done ? 0.0 : 1.0;
      double delta = t.reward + config_.gamma * next_value * not_done - t.value;
      gae = delta + config_.gamma * config_.gae_lambda * not_done * gae;
      advantages_[i] = gae;
      returns_[i] = gae + t.value;
      next_value = t.value;
    }

    // Normalize advantages for stable step sizes.
    double mean = std::accumulate(advantages_.begin(), advantages_.end(), 0.0) /
                  static_cast<double>(n);
    double var = 0.0;
    for (double a : advantages_) var += (a - mean) * (a - mean);
    double sd = std::sqrt(var / static_cast<double>(n)) + 1e-8;
    for (double& a : advantages_) a = (a - mean) / sd;
  }

  // Every epoch's shuffle, drawn before either pass runs: row e of order_ is
  // row e-1 shuffled again, the same rng_ draws in the same order as
  // reshuffling one index array at the top of each epoch.
  const std::size_t epochs = static_cast<std::size_t>(std::max(config_.epochs, 0));
  order_.resize(epochs * n);
  for (std::size_t e = 0; e < epochs; ++e) {
    std::size_t* row = order_.data() + e * n;
    if (e == 0) {
      std::iota(row, row + n, std::size_t{0});
    } else {
      std::copy(row - n, row, row);
    }
    std::shuffle(row, row + n, rng_.engine());
  }

  // The actor and critic passes share no mutable state, so they may run on
  // two threads; each does the same work in the same order either way.
  PolicyPassStats policy;
  double value_loss = 0;
  auto run_pass = [&](std::size_t pass) {
    if (pass == 0) {
      policy = actor_pass(n);
    } else {
      value_loss = critic_pass(n);
    }
  };
  if (pool && pool->thread_count() > 1) {
    parallel_for_chunked(*pool, 0, 2, 1, run_pass);
  } else {
    run_pass(0);
    run_pass(1);
  }

  buffer_.clear();
  ++updates_;

  // Training-dynamics statistics (observer telemetry): pure reads of values
  // the loss/gradient path computes anyway, so the weight updates are bit-
  // identical whether or not anyone listens.
  const std::size_t stat_rows = epochs * n;
  if (update_observer && stat_rows > 0) {
    const double rows = static_cast<double>(stat_rows);
    PpoUpdateStats stats;
    stats.update = updates_;
    stats.transitions = n;
    stats.policy_loss = policy.policy_loss / rows;
    stats.value_loss = value_loss / rows;
    stats.clip_fraction = static_cast<double>(policy.clipped) / rows;
    stats.approx_kl = policy.kl / rows;
    // Differential entropy of the Gaussian policy: log_std + 0.5*ln(2*pi*e).
    stats.entropy = log_std_ + kHalfLog2Pi + 0.5;
    update_observer(stats);
  }
}

PpoAgent::PolicyPassStats PpoAgent::actor_pass(std::size_t n) {
  PolicyPassStats stats;
  const std::size_t dim = config_.state_dim;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const std::size_t* order = order_.data() + static_cast<std::size_t>(epoch) * n;
    for (std::size_t start = 0; start < n; start += config_.minibatch) {
      const std::size_t end = std::min(start + config_.minibatch, n);
      const std::size_t b = end - start;
      const double batch = static_cast<double>(b);
      const double sd_now = std::exp(log_std_);
      double log_std_grad = 0.0;

      // Assemble the minibatch: states as one (b x dim) matrix, scalars into
      // flat arrays.
      actor_ws_.set_batch(b);
      Vector& states = actor_ws_.input().data();
      for (std::size_t k = start; k < end; ++k) {
        const PpoTransition& t = buffer_[order[k]];
        const std::size_t row = k - start;
        std::copy(t.state.begin(), t.state.end(), states.begin() +
                  static_cast<std::ptrdiff_t>(row * dim));
        mb_action_[row] = t.action;
        mb_old_logp_[row] = t.log_prob;
        mb_adv_[row] = advantages_[order[k]];
      }

      // Clipped surrogate over the whole minibatch. Gradient flows only for
      // rows where the unclipped ratio is the active branch.
      {
        PROF_SCOPE("ppo.forward");
        actor_->forward_batch(actor_ws_);
      }
      const Vector& mu = actor_ws_.output().data();  // (b x 1)
      Vector& dmu = actor_ws_.output_grad().data();
      for (std::size_t row = 0; row < b; ++row) {
        double adv = mb_adv_[row];
        double logp = log_prob(mb_action_[row], mu[row]);
        double ratio = std::exp(logp - mb_old_logp_[row]);
        double clipped = std::clamp(ratio, 1.0 - config_.clip_ratio,
                                    1.0 + config_.clip_ratio);
        stats.policy_loss -= std::min(ratio * adv, clipped * adv);
        stats.kl += mb_old_logp_[row] - logp;
        if (std::abs(ratio - 1.0) > config_.clip_ratio) ++stats.clipped;
        bool unclipped_active = ratio * adv <= clipped * adv + 1e-12;
        if (unclipped_active) {
          // dL/dlogp = -adv * ratio ; dlogp/dmu = (a - mu)/sd^2
          double dl_dlogp = -adv * ratio;
          dmu[row] = dl_dlogp * (mb_action_[row] - mu[row]) / (sd_now * sd_now);
          // dlogp/dlog_std = z^2 - 1
          double z = (mb_action_[row] - mu[row]) / sd_now;
          log_std_grad += dl_dlogp * (z * z - 1.0);
        } else {
          dmu[row] = 0.0;
        }
        // Entropy bonus: H = log_std + const; loss -= coef*H.
        log_std_grad -= config_.entropy_coef;
      }
      {
        PROF_SCOPE("ppo.backward");
        actor_->backward_batch(actor_ws_);
      }
      {
        PROF_SCOPE("ppo.adam");
        actor_opt_->step(1.0 / batch);
        log_std_ -= log_std_opt_.step(log_std_grad / batch);
        log_std_ = std::clamp(log_std_, config_.min_log_std, config_.max_log_std);
      }
    }
  }
  return stats;
}

double PpoAgent::critic_pass(std::size_t n) {
  double value_loss = 0;
  const std::size_t dim = config_.state_dim;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const std::size_t* order = order_.data() + static_cast<std::size_t>(epoch) * n;
    for (std::size_t start = 0; start < n; start += config_.minibatch) {
      const std::size_t end = std::min(start + config_.minibatch, n);
      const std::size_t b = end - start;
      const double batch = static_cast<double>(b);

      critic_ws_.set_batch(b);
      Vector& states = critic_ws_.input().data();
      for (std::size_t k = start; k < end; ++k) {
        const PpoTransition& t = buffer_[order[k]];
        std::copy(t.state.begin(), t.state.end(), states.begin() +
                  static_cast<std::ptrdiff_t>((k - start) * dim));
      }

      // 0.5*(V - ret)^2 over the minibatch.
      {
        PROF_SCOPE("ppo.forward");
        critic_->forward_batch(critic_ws_);
      }
      const Vector& v = critic_ws_.output().data();
      Vector& dv = critic_ws_.output_grad().data();
      for (std::size_t row = 0; row < b; ++row) {
        dv[row] = v[row] - returns_[order[start + row]];
        value_loss += 0.5 * dv[row] * dv[row];
      }
      {
        PROF_SCOPE("ppo.backward");
        critic_->backward_batch(critic_ws_);
      }
      {
        PROF_SCOPE("ppo.adam");
        critic_opt_->step(1.0 / batch);
      }
    }
  }
  return value_loss;
}

void PpoAgent::save(std::ostream& out) const {
  out.precision(17);
  out << log_std_ << '\n';
  actor_->save(out);
  critic_->save(out);
}

void PpoAgent::load(std::istream& in) {
  in >> log_std_;
  actor_->load(in);
  critic_->load(in);
}

std::int64_t PpoAgent::memory_bytes() const {
  // Parameters (actor + critic) plus two Adam moment mirrors each.
  auto params = static_cast<std::int64_t>(actor_->parameter_count() +
                                          critic_->parameter_count());
  return params * 3 * static_cast<std::int64_t>(sizeof(double));
}

}  // namespace libra
