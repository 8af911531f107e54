#include "harness/trainer.h"

#include <algorithm>

#include "learned/orca.h"
#include "learned/rl_cca.h"
#include "obs/json.h"
#include "obs/profiler.h"

namespace libra {

std::optional<std::pair<double, int>> episode_reward_of(CongestionControl& cca) {
  if (auto* rl = dynamic_cast<RlCca*>(&cca))
    return std::make_pair(rl->episode_reward(), rl->episode_steps());
  if (auto* orca = dynamic_cast<Orca*>(&cca))
    return std::make_pair(orca->episode_reward(), orca->episode_steps());
  return std::nullopt;
}

Scenario Trainer::sample_env(std::uint64_t& run_seed) {
  Scenario env;
  double cap = rng_.uniform(ranges_.capacity_lo_mbps, ranges_.capacity_hi_mbps);
  env.name = "train";
  env.nominal_rate = mbps(cap);
  env.make_trace = [cap](std::uint64_t) {
    return std::make_shared<ConstantTrace>(mbps(cap));
  };
  const SimDuration min_rtt = rng_.uniform_int(ranges_.rtt_lo, ranges_.rtt_hi);
  env.link.propagation_delay = min_rtt / 2;
  env.link.buffer_bytes = rng_.uniform_int(ranges_.buffer_lo, ranges_.buffer_hi);
  env.link.stochastic_loss = rng_.uniform(ranges_.loss_lo, ranges_.loss_hi);
  env.duration = ranges_.episode_length;
  run_seed = static_cast<std::uint64_t>(rng_.uniform_int(1, 1'000'000'000));
  return env;
}

EpisodeStats Trainer::run_in_env(const Scenario& env, const CcaFactory& make_cca,
                                 std::uint64_t run_seed) {
  auto net = run_scenario(env, {{make_cca}}, run_seed);

  EpisodeStats stats;
  RunSummary sum = summarize(*net, 0, env.duration);
  stats.throughput_bps = sum.total_throughput_bps;
  stats.avg_rtt_ms = sum.flows.front().avg_rtt_ms;
  stats.loss_rate = sum.flows.front().loss_rate;
  stats.link_utilization = sum.link_utilization;
  if (auto r = episode_reward_of(net->flow(0).sender().cca())) {
    stats.reward = r->first;
    stats.steps = r->second;
  }
  return stats;
}

void Trainer::emit_episode(int index, const EpisodeStats& stats) {
  if (!telemetry_) return;
  std::string line;
  JsonWriter w(line);
  w.begin_object();
  w.key("ev").value("episode");
  w.key("episode").value(static_cast<std::int64_t>(index));
  w.key("reward").value(stats.reward);
  w.key("steps").value(static_cast<std::int64_t>(stats.steps));
  w.key("throughput_bps").value(stats.throughput_bps);
  w.key("avg_rtt_ms").value(stats.avg_rtt_ms);
  w.key("loss_rate").value(stats.loss_rate);
  w.key("link_utilization").value(stats.link_utilization);
  w.end_object();
  telemetry_->write_line(line);
}

std::vector<EpisodeStats> Trainer::train_parallel(
    const BrainBoundFactory& make_cca, const std::shared_ptr<RlBrain>& brain,
    int episodes, ThreadPool& pool, int round_size) {
  if (!brain) throw std::invalid_argument("train_parallel: brain required");
  if (round_size < 1) round_size = 1;

  struct EpisodeJob {
    Scenario env;
    std::uint64_t run_seed = 0;
    std::shared_ptr<RlBrain> collector;
    EpisodeStats stats;
    std::vector<PpoTransition> rollout;
    RunningNormalizer norm_delta{1};
  };

  std::vector<EpisodeStats> curve;
  curve.reserve(static_cast<std::size_t>(episodes));

  // Telemetry hook: every policy update the master agent runs during the
  // ordered reduction streams its training statistics. The observer is a pure
  // reader, so installing it cannot change the trained weights.
  if (telemetry_) {
    std::shared_ptr<LineSink> sink = telemetry_;
    brain->agent.update_observer = [sink](const PpoUpdateStats& st) {
      std::string line;
      JsonWriter w(line);
      w.begin_object();
      w.key("ev").value("update");
      w.key("update").value(static_cast<std::int64_t>(st.update));
      w.key("transitions").value(static_cast<std::uint64_t>(st.transitions));
      w.key("policy_loss").value(st.policy_loss);
      w.key("value_loss").value(st.value_loss);
      w.key("clip_fraction").value(st.clip_fraction);
      w.key("approx_kl").value(st.approx_kl);
      w.key("entropy").value(st.entropy);
      w.end_object();
      sink->write_line(line);
    };
  }

  int round = 0;
  for (int done = 0; done < episodes; done += round_size, ++round) {
    PROF_SCOPE("train.round");
    const int r = std::min(round_size, episodes - done);
    std::vector<EpisodeJob> jobs(static_cast<std::size_t>(r));

    // Main thread, sequential: draw every stochastic input of the round (env
    // realizations, run seeds, per-episode agent RNG streams) and snapshot
    // the current policy into per-episode collector brains. Nothing below
    // depends on the pool's thread count.
    for (EpisodeJob& job : jobs) {
      job.env = sample_env(job.run_seed);
      PpoConfig cfg = brain->agent.config();
      cfg.seed = static_cast<std::uint64_t>(rng_.uniform_int(1, 1'000'000'000));
      job.collector =
          std::make_shared<RlBrain>(std::move(cfg), brain->normalizer.dim());
      job.collector->agent.copy_parameters_from(brain->agent);
      job.collector->normalizer = brain->normalizer;
      job.collector->normalizer.begin_delta_collection();
    }

    // Fan the round's episodes out; each mutates only its own collector brain
    // and its own Network, so workers share nothing mutable.
    parallel_for_chunked(pool, 0, jobs.size(), 1, [&](std::size_t i) {
      PROF_SCOPE("train.episode");
      EpisodeJob& job = jobs[i];
      job.stats = run_in_env(
          job.env, [&job, &make_cca] { return make_cca(job.collector); },
          job.run_seed);
      job.rollout = job.collector->agent.take_transitions(/*mark_final_done=*/true);
      job.norm_delta = job.collector->normalizer.take_delta();
    });

    // Ordered reduction on the main thread: the only writes to the master
    // brain. Episode order is submission order, so the learned weights are
    // bitwise identical at any thread count. Each PPO update it triggers
    // runs its actor and critic passes concurrently on the same pool.
    {
      PROF_SCOPE("train.reduce");
      for (EpisodeJob& job : jobs) {
        brain->normalizer.merge(job.norm_delta);
        brain->agent.ingest(std::move(job.rollout), &pool);
        emit_episode(done + static_cast<int>(&job - jobs.data()), job.stats);
        curve.push_back(job.stats);
      }
    }

    if (telemetry_) {
      std::string line;
      JsonWriter w(line);
      w.begin_object();
      w.key("ev").value("round");
      w.key("round").value(static_cast<std::int64_t>(round));
      w.key("episodes_done").value(static_cast<std::int64_t>(done + r));
      w.key("updates").value(static_cast<std::int64_t>(brain->agent.update_count()));
      w.key("norm_count").value(static_cast<std::uint64_t>(brain->normalizer.count()));
      w.key("norm_mean_abs").value(brain->normalizer.mean_abs());
      w.key("norm_mean_std").value(brain->normalizer.mean_std());
      w.key("exploration_stddev").value(brain->agent.exploration_stddev());
      w.end_object();
      telemetry_->write_line(line);
    }
  }
  if (telemetry_) {
    brain->agent.update_observer = nullptr;
    telemetry_->flush();
  }
  return curve;
}

}  // namespace libra
