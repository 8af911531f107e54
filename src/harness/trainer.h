// Training loop for the RL congestion controllers.
//
// Mirrors the paper's training environment (Sec. 5): every episode samples a
// fresh network — link capacity 10-200 Mbps, min RTT 10-200 ms, buffer
// 10 KB-5 MB, stochastic loss 0-10% — starts a new flow, and lets the shared
// PPO brain learn across episodes.
//
// One training loop, train_parallel(), in rounds: each round snapshots the
// policy into per-episode collector brains (own RNG stream, frozen-reference
// normalizer), fans the episodes across a thread pool, then reduces
// transitions and normalizer deltas back into the master brain in episode
// order. The reduction is the only place the master brain mutates, so
// trained weights are bitwise identical at any thread count. Every PPO update
// the reduction triggers runs its actor and critic passes concurrently on the
// same pool (PpoAgent::ingest), which changes no bit of the weights either.
// No transition crosses an episode: each episode's rollout ends with `done`
// set, and its last action, whose reward would come from the next episode,
// is dropped.
//
// Telemetry: set_telemetry() attaches a LineSink; training then streams one
// JSON object per line — {"ev":"episode",...} per finished episode,
// {"ev":"update",...} per PPO policy update (loss/clip/KL/entropy, via
// PpoAgent::update_observer), {"ev":"round",...} per parallel round with
// normalizer statistics. Pure observation: the trained weights are identical
// with or without a sink. Schema in EXPERIMENTS.md.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "harness/runner.h"
#include "learned/rl_cca.h"
#include "obs/sink.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace libra {

struct TrainEnvRanges {
  double capacity_lo_mbps = 10, capacity_hi_mbps = 200;
  SimDuration rtt_lo = msec(10), rtt_hi = msec(200);
  std::int64_t buffer_lo = 10 * 1000, buffer_hi = 5 * 1000 * 1000;
  double loss_lo = 0.0, loss_hi = 0.10;
  SimDuration episode_length = sec(6);
};

struct EpisodeStats {
  double reward = 0;       // cumulative agent reward over the episode
  int steps = 0;           // agent decisions taken
  double throughput_bps = 0;
  double avg_rtt_ms = 0;
  double loss_rate = 0;
  double link_utilization = 0;
};

/// Builds a training-mode controller bound to the given brain. Each episode
/// runs against its own collector snapshot of the master brain, so the
/// factory must bind the brain it is handed, never a captured one.
using BrainBoundFactory =
    std::function<std::unique_ptr<CongestionControl>(const std::shared_ptr<RlBrain>&)>;

/// Pulls the cumulative episode reward out of a controller if it is one of
/// the RL types (RlCca, Orca, or a Libra wrapping an RlCca).
std::optional<std::pair<double, int>> episode_reward_of(CongestionControl& cca);

class Trainer {
 public:
  Trainer(TrainEnvRanges ranges, std::uint64_t seed)
      : ranges_(ranges), rng_(seed) {}

  /// Trains `brain` for `episodes` episodes, in rounds (see file header).
  /// `round_size` episodes are collected per policy snapshot; it is a fixed
  /// algorithm parameter — results depend on it, but NOT on the pool's thread
  /// count. Episode stats come back in episode order.
  std::vector<EpisodeStats> train_parallel(const BrainBoundFactory& make_cca,
                                           const std::shared_ptr<RlBrain>& brain,
                                           int episodes, ThreadPool& pool,
                                           int round_size = 8);

  /// Streams per-episode / per-update / per-round training statistics as
  /// JSONL through `sink` (nullptr disables). See the file header.
  void set_telemetry(std::shared_ptr<LineSink> sink) {
    telemetry_ = std::move(sink);
  }

 private:
  Scenario sample_env(std::uint64_t& run_seed);
  EpisodeStats run_in_env(const Scenario& env, const CcaFactory& make_cca,
                          std::uint64_t run_seed);
  void emit_episode(int index, const EpisodeStats& stats);

  TrainEnvRanges ranges_;
  Rng rng_;
  std::shared_ptr<LineSink> telemetry_;
};

}  // namespace libra
