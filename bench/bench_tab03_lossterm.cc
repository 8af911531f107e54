// Tab. 3 — RL reward with vs without the loss-rate term, evaluated in the
// paper's default environment (100 Mbps / 100 ms / 1 BDP). Paper: without
// the loss term throughput is marginally higher but latency and loss blow up
// (the utility saturates once the queue is full).
#include "bench/common.h"

#include "harness/trainer.h"
#include "learned/rl_cca.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Tab. 3", "reward with vs without the loss term");

  TrainEnvRanges env;
  env.capacity_lo_mbps = env.capacity_hi_mbps = 100;
  env.rtt_lo = env.rtt_hi = msec(100);
  env.buffer_lo = env.buffer_hi = 100e6 / 8 * 0.1;
  env.loss_lo = env.loss_hi = 0;
  env.episode_length = sec(5);
  constexpr int kEpisodes = 260;
  constexpr int kTail = 40;

  Table t({"setting", "throughput", "latency", "loss rate"});
  for (bool with_loss : {true, false}) {
    RlCcaConfig cfg;
    cfg.reward_includes_loss = with_loss;
    auto brain = std::make_shared<RlBrain>(make_ppo_config(cfg, with_loss ? 61 : 62),
                                           feature_frame_size(cfg.features));
    Trainer trainer(env, 43);
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
    t.add_row({with_loss ? "with loss rate" : "w/o loss rate",
               fmt(thr / kTail / 1e6, 1) + " Mbps", fmt(lat / kTail, 0) + " ms",
               fmt_pct(loss / kTail, 2)});
  }
  section("Final-window averages (paper: w/o loss -> ~2x latency, 37% loss)");
  t.print();
  return 0;
}
