// Tab. 2 — Performance when adding/removing Tab. 1 states relative to the
// baseline combination {(iv),(vi),(vii),(viii),(ix)}. The paper's headline:
// removing (vi) (raw RTT pair) is the best single edit — it is Libra's final
// state space.
#include "bench/common.h"

#include "harness/trainer.h"
#include "learned/rl_cca.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Tab. 2", "state-space add/remove deltas vs the baseline");

  using SF = StateFeature;
  struct Variant {
    std::string label;
    std::vector<SF> features;
  };
  const std::vector<SF> baseline = baseline_state_space();
  const std::vector<Variant> variants = {
      {"baseline", baseline},
      {"-(vi)", libra_state_space()},
      {"+(i)(ii)", {SF::kAckGapEwma, SF::kSendGapEwma, SF::kSendRate,
                    SF::kRttAndMinRtt, SF::kLossRate, SF::kRttGradient,
                    SF::kDeliveryRate}},
      {"+(i)(ii)(iii)", {SF::kAckGapEwma, SF::kSendGapEwma, SF::kRttRatio,
                         SF::kSendRate, SF::kRttAndMinRtt, SF::kLossRate,
                         SF::kRttGradient, SF::kDeliveryRate}},
      {"+(ii)(iii)(v)-(iv)", {SF::kSendGapEwma, SF::kRttRatio, SF::kSentAckedRatio,
                              SF::kRttAndMinRtt, SF::kLossRate, SF::kRttGradient,
                              SF::kDeliveryRate}},
      {"+(iii)", {SF::kRttRatio, SF::kSendRate, SF::kRttAndMinRtt, SF::kLossRate,
                  SF::kRttGradient, SF::kDeliveryRate}},
      {"-(ix)", {SF::kSendRate, SF::kRttAndMinRtt, SF::kLossRate, SF::kRttGradient}},
  };

  TrainEnvRanges env;
  env.capacity_lo_mbps = env.capacity_hi_mbps = 100;
  env.rtt_lo = env.rtt_hi = msec(100);
  env.buffer_lo = env.buffer_hi = 100e6 / 8 * 0.1;
  env.loss_lo = env.loss_hi = 0;
  env.episode_length = sec(5);
  constexpr int kEpisodes = 200;
  constexpr int kTail = 40;  // evaluate on the final N episodes

  struct Result {
    double reward, thr, lat, loss;
  };
  std::vector<Result> results;
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    RlCcaConfig cfg;
    cfg.features = variants[vi].features;
    auto brain = std::make_shared<RlBrain>(make_ppo_config(cfg, 91 + vi),
                                           feature_frame_size(cfg.features));
    Trainer trainer(env, 13);
    auto stats = trainer.train_parallel(
        [&cfg](const std::shared_ptr<RlBrain>& b) {
          RlCcaConfig c = cfg;
          c.training = true;
          return std::make_unique<RlCca>(c, b);
        },
        brain, kEpisodes, default_pool());
    Result r{0, 0, 0, 0};
    for (int k = kEpisodes - kTail; k < kEpisodes; ++k) {
      const auto& e = stats[static_cast<std::size_t>(k)];
      r.reward += e.reward;
      r.thr += e.throughput_bps;
      r.lat += e.avg_rtt_ms;
      r.loss += e.loss_rate;
    }
    r.reward /= kTail;
    r.thr /= kTail;
    r.lat /= kTail;
    r.loss /= kTail;
    results.push_back(r);
  }

  const Result& base = results[0];
  auto pct = [](double v, double b) {
    if (std::abs(b) < 1e-12) return std::string("n/a");
    return fmt((v - b) / std::abs(b) * 100.0, 1) + "%";
  };
  Table t({"state", "reward", "throughput", "latency", "loss"});
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    const Result& r = results[vi];
    if (vi == 0) {
      t.add_row({"baseline", "0%", "0%", "0%", "0%"});
    } else {
      t.add_row({variants[vi].label, pct(r.reward, base.reward),
                 pct(r.thr, base.thr), pct(r.lat, base.lat), pct(r.loss, base.loss)});
    }
  }
  section("Deltas vs baseline over the final training window "
          "(paper: -(vi) best reward; -(ix) worst)");
  t.print();
  return 0;
}
