// Proximal Policy Optimization (clipped surrogate, GAE-lambda) for a
// continuous 1-D action — the learning algorithm behind Libra's RL component
// (Alg. 2) and the Aurora/Orca baselines. Actor and critic are independent
// MLPs; the Gaussian policy's log-std is a standalone learned parameter.
//
// The update path is batched and allocation-free: minibatch state/advantage/
// old-logp matrices are assembled once per epoch slice into workspaces sized
// at construction, and the batched MLP kernels plus slab-fused Adam do the
// rest. Rollout collection is decoupled from learning: act() and
// give_reward() only record, take_transitions() hands the rollout over, and
// ingest()/flush_update() run the updates. That split is what lets the
// trainer fan episodes out across threads and reduce them back
// deterministically.
//
// An update is two independent passes over the same rollout: the actor pass
// (policy forward, clipped-surrogate gradient, backward, actor and log-std
// Adam steps) and the critic pass (value forward, gradient, backward, critic
// Adam step). They share no parameter, optimizer, workspace or minibatch
// array, and read the same per-epoch shuffles, which are drawn up front. Each
// pass does exactly the floating-point work of the interleaved loop, in the
// same order, so running them concurrently on a pool (ingest/flush_update
// with a pool of two or more threads) gives bitwise the same weights as
// running them one after the other.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>

#include "rl/adam.h"
#include "rl/matrix.h"
#include "rl/mlp.h"
#include "util/rng.h"

namespace libra {

class ThreadPool;

struct PpoConfig {
  std::size_t state_dim = 0;                 // required
  std::vector<std::size_t> hidden = {64, 64};  // paper uses {512,512}; width is a knob
  double gamma = 0.95;
  double gae_lambda = 0.95;
  double clip_ratio = 0.2;
  int epochs = 6;
  std::size_t minibatch = 64;
  std::size_t horizon = 512;  // transitions per policy update
  double actor_lr = 3e-4;
  double critic_lr = 1e-3;
  double entropy_coef = 1e-3;
  double init_log_std = -0.5;
  double min_log_std = -3.0;
  double max_log_std = 0.7;
  std::uint64_t seed = 7;
};

/// Training-dynamics snapshot of one policy update, averaged over every
/// minibatch the update processed. Derived from values the update computes
/// anyway, so observing costs nothing extra on the weight path.
struct PpoUpdateStats {
  int update = 0;              // 1-based update ordinal
  std::size_t transitions = 0; // rollout size this update consumed
  double policy_loss = 0;      // mean clipped-surrogate loss
  double value_loss = 0;       // mean 0.5*(V - return)^2
  double clip_fraction = 0;    // fraction of samples with |ratio-1| > clip
  double approx_kl = 0;        // mean(old_logp - new_logp)
  double entropy = 0;          // Gaussian policy entropy at end of update
};

/// One recorded (state, action, outcome) step of a rollout. Public so that
/// parallel rollout collection can move batches of these between collector
/// agents and the learning master.
struct PpoTransition {
  Vector state;
  double action = 0.0;
  double log_prob = 0.0;
  double value = 0.0;
  double reward = 0.0;
  bool done = false;
};

class PpoAgent {
 public:
  explicit PpoAgent(PpoConfig config);

  /// Samples an action for `state` and opens a transition with it. Never
  /// updates the policy: the recorded rollout reaches the learner through
  /// take_transitions() and ingest().
  double act(const Vector& state);

  /// Returns the policy mean without sampling or recording (inference mode).
  double act_greedy(const Vector& state) const;

  /// Completes the transition opened by the last act(). `done` marks an
  /// episode boundary (GAE does not bootstrap across it).
  void give_reward(double reward, bool done = false);

  /// Copies actor/critic parameters and log-std from a same-architecture
  /// agent (optimizer state, RNG and buffered rollouts are untouched). The
  /// policy-snapshot step when cloning collector agents.
  void copy_parameters_from(const PpoAgent& other);

  /// Drains the rollout buffer (dropping any half-open transition). When
  /// `mark_final_done` is set, the last transition is flagged as an episode
  /// boundary so GAE will not bootstrap across the splice point.
  std::vector<PpoTransition> take_transitions(bool mark_final_done = true);

  /// Appends collected transitions to the rollout buffer in order, running a
  /// policy update whenever the buffer reaches the horizon (bootstrapping
  /// from the incoming transition's recorded value). Ordered ingestion is
  /// what makes parallel rollout collection bitwise thread-count invariant.
  /// With a `pool` of two or more threads each update runs its actor and
  /// critic passes concurrently (the calling thread takes part, so a busy
  /// pool only costs the concurrency); the weights are bitwise the same as
  /// without one.
  void ingest(std::vector<PpoTransition> batch, ThreadPool* pool = nullptr);

  /// Forces a policy update on whatever the buffer holds (test/bench hook:
  /// lets callers time or allocation-check update() in isolation). `pool`
  /// as for ingest().
  void flush_update(double bootstrap_value, ThreadPool* pool = nullptr);

  int update_count() const { return updates_; }
  double exploration_stddev() const;
  std::size_t buffered_transitions() const { return buffer_.size(); }

  /// Parameters + Adam state, in bytes — feeds the overhead benchmarks.
  std::int64_t memory_bytes() const;

  const PpoConfig& config() const { return config_; }

  /// Persists/restores actor, critic and log-std (optimizer state excluded).
  void save(std::ostream& out) const;
  void load(std::istream& in);

  /// Fired after every policy update with that update's training statistics
  /// (the Trainer's telemetry hook). Pure observer: the update path computes
  /// and applies identical gradients whether or not it is set.
  std::function<void(const PpoUpdateStats&)> update_observer;

 private:
  /// What the actor pass accumulates for PpoUpdateStats (sums over rows).
  struct PolicyPassStats {
    double policy_loss = 0, kl = 0;
    std::uint64_t clipped = 0;
  };

  void update(double bootstrap_value, ThreadPool* pool);
  /// The two halves of update(), over the n buffered transitions and the
  /// shuffles in order_. They touch disjoint members, so they may run
  /// concurrently; critic_pass returns the summed value loss.
  PolicyPassStats actor_pass(std::size_t n);
  double critic_pass(std::size_t n);
  double log_prob(double action, double mean) const;

  PpoConfig config_;
  Rng rng_;
  std::unique_ptr<Mlp> actor_;
  std::unique_ptr<Mlp> critic_;
  std::unique_ptr<AdamOptimizer> actor_opt_;
  std::unique_ptr<AdamOptimizer> critic_opt_;
  double log_std_;
  ScalarAdam log_std_opt_;

  std::vector<PpoTransition> buffer_;
  std::optional<PpoTransition> pending_;
  int updates_ = 0;

  // Preallocated update() workspaces: sized at construction from (horizon,
  // minibatch, state_dim, hidden, epochs), so update() allocates nothing per
  // minibatch. See the alloc-counting test. order_ holds every epoch's
  // shuffle of the rollout (epochs x n, row-major); the actor pass owns
  // actor_ws_ and the mb_* arrays, the critic pass owns critic_ws_.
  MlpWorkspace actor_ws_, critic_ws_;
  Vector advantages_, returns_;
  std::vector<std::size_t> order_;
  Vector mb_action_, mb_old_logp_, mb_adv_;
};

}  // namespace libra
