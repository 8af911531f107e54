// Fig. 5 — Reward training curves for the state-space choices of prior
// learned CCAs (Tab. 1) vs Libra's optimized combination, trained in the
// paper's default RL environment (100 Mbps, 100 ms RTT, 1 BDP buffer).
// Paper shape: DRL-CC and PCC state spaces lead the baselines; Libra's
// searched combination ends highest.
#include "bench/common.h"

#include "harness/trainer.h"
#include "learned/rl_cca.h"

namespace {
using namespace libra;

RlCcaConfig with_features(std::vector<StateFeature> f, const std::string& name) {
  RlCcaConfig cfg;
  cfg.features = std::move(f);
  cfg.name = name;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Fig. 5", "reward curves per state-space choice (paper Tab. 1 rows)");

  // State spaces as published (Tab. 1 citations per row).
  struct Candidate {
    std::string name;
    std::vector<StateFeature> features;
  };
  const std::vector<Candidate> candidates = {
      {"aurora", {StateFeature::kRttGradient, StateFeature::kRttRatio,
                  StateFeature::kSentAckedRatio}},
      {"rl-tcp", {StateFeature::kAckGapEwma, StateFeature::kSendGapEwma,
                  StateFeature::kRttRatio, StateFeature::kSendRate}},
      {"pcc", {StateFeature::kSendRate, StateFeature::kLossRate,
               StateFeature::kRttGradient}},
      {"remy", {StateFeature::kAckGapEwma, StateFeature::kSendGapEwma,
                StateFeature::kRttRatio}},
      {"drl-cc", {StateFeature::kSendGapEwma, StateFeature::kSendRate,
                  StateFeature::kRttAndMinRtt, StateFeature::kDeliveryRate}},
      {"libra", libra_state_space()},
      {"orca", {StateFeature::kSendGapEwma, StateFeature::kSendRate,
                StateFeature::kRttAndMinRtt, StateFeature::kLossRate,
                StateFeature::kDeliveryRate}},
  };

  // Paper's default RL experiment environment (Sec. 4.2).
  TrainEnvRanges env;
  env.capacity_lo_mbps = env.capacity_hi_mbps = 100;
  env.rtt_lo = env.rtt_hi = msec(100);
  env.buffer_lo = env.buffer_hi = 100e6 / 8 * 0.1;  // 1 BDP
  env.loss_lo = env.loss_hi = 0;
  env.episode_length = sec(5);

  constexpr int kEpisodes = 240;
  constexpr int kBucket = 30;

  Table t({"episodes", "aurora", "rl-tcp", "pcc", "remy", "drl-cc", "libra", "orca"});
  std::vector<std::vector<double>> curves;
  std::vector<double> final_avg(candidates.size());
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    RlCcaConfig cfg = with_features(candidates[ci].features, candidates[ci].name);
    auto brain = std::make_shared<RlBrain>(make_ppo_config(cfg, 31 + ci),
                                           feature_frame_size(cfg.features));
    Trainer trainer(env, 77);
    auto stats = trainer.train_parallel(
        [&cfg](const std::shared_ptr<RlBrain>& b) {
          RlCcaConfig c = cfg;
          c.training = true;
          return std::make_unique<RlCca>(c, b);
        },
        brain, kEpisodes, default_pool());
    // Internal training rewards are not comparable across reward designs, so
    // the curves report a uniform episode quality score in the spirit of the
    // paper's reward axis: utilization minus excess-delay and loss penalties
    // (env min RTT is the fixed 100 ms).
    std::vector<double> curve;
    for (int b = 0; b < kEpisodes / kBucket; ++b) {
      double sum = 0;
      for (int k = 0; k < kBucket; ++k) {
        const EpisodeStats& e = stats[static_cast<std::size_t>(b * kBucket + k)];
        sum += e.link_utilization -
               0.5 * std::max(0.0, e.avg_rtt_ms / 100.0 - 1.0) -
               10.0 * e.loss_rate;
      }
      curve.push_back(sum / kBucket);
    }
    final_avg[ci] = curve.back();
    curves.push_back(std::move(curve));
  }
  for (std::size_t b = 0; b < curves[0].size(); ++b) {
    std::vector<std::string> row{std::to_string((b + 1) * kBucket)};
    for (auto& c : curves) row.push_back(fmt(c[b], 2));
    t.add_row(row);
  }
  section("Bucketed episode quality score "
          "(paper: libra's combination ends highest)");
  t.print();
  return 0;
}
