// Tab. 4 — Absolute reward r vs difference reward delta-r. Paper: delta-r
// keeps throughput while sharply cutting latency and loss; fairness improves
// but stays limited for a pure RL CCA (which motivates the combination).
#include "bench/common.h"

#include "harness/trainer.h"
#include "learned/rl_cca.h"
#include "stats/fairness.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Tab. 4", "absolute reward r vs difference reward delta-r");

  TrainEnvRanges env;
  env.capacity_lo_mbps = env.capacity_hi_mbps = 100;
  env.rtt_lo = env.rtt_hi = msec(100);
  env.buffer_lo = env.buffer_hi = 100e6 / 8 * 0.1;
  env.loss_lo = env.loss_hi = 0;
  env.episode_length = sec(5);
  constexpr int kEpisodes = 260;
  constexpr int kTail = 40;

  Table t({"setting", "throughput", "latency", "loss rate", "fairness"});
  for (RewardMode mode : {RewardMode::kAbsolute, RewardMode::kDelta}) {
    RlCcaConfig cfg;
    cfg.reward_mode = mode;
    auto brain = std::make_shared<RlBrain>(
        make_ppo_config(cfg, mode == RewardMode::kDelta ? 71 : 72),
        feature_frame_size(cfg.features));
    Trainer trainer(env, 47);
    auto stats = trainer.train_parallel(
        [&cfg](const std::shared_ptr<RlBrain>& b) {
          RlCcaConfig c = cfg;
          c.training = true;
          return std::make_unique<RlCca>(c, b);
        },
        brain, kEpisodes, default_pool());
    double thr = 0, lat = 0, loss = 0;
    for (int k = kEpisodes - kTail; k < kEpisodes; ++k) {
      thr += stats[static_cast<std::size_t>(k)].throughput_bps;
      lat += stats[static_cast<std::size_t>(k)].avg_rtt_ms;
      loss += stats[static_cast<std::size_t>(k)].loss_rate;
    }

    // Fairness: two trained flows share a 100 Mbps bottleneck.
    Scenario share = wired_scenario(100, msec(50), 100e6 / 8 * 0.05);
    share.duration = sec(30);
    auto factory = [&]() -> std::unique_ptr<CongestionControl> {
      return std::make_unique<RlCca>(cfg, brain);
    };
    auto net = run_scenario(share, {{factory}, {factory}}, 3);
    double a = net->flow(0).throughput_in(sec(10), sec(30));
    double b = net->flow(1).throughput_in(sec(10), sec(30));

    t.add_row({mode == RewardMode::kDelta ? "delta-r" : "r",
               fmt(thr / kTail / 1e6, 1) + " Mbps", fmt(lat / kTail, 0) + " ms",
               fmt_pct(loss / kTail, 2), fmt(jain_index({a, b}), 3)});
  }
  section("Paper: delta-r ~same throughput, much lower latency/loss, "
          "fairness better but still limited");
  t.print();
  return 0;
}
