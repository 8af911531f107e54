// Fig. 6 — Reward curves for AIAD vs MIMD action spaces with scale factors
// 1 / 5 / 10. Paper shape: MIMD learns faster and converges higher; AIAD
// with scale=1 lags badly.
#include "bench/common.h"

#include "harness/trainer.h"
#include "learned/rl_cca.h"

int main(int argc, char** argv) {
  libra::benchx::parse_args(argc, argv);
  using namespace libra;
  using namespace libra::benchx;
  header("Fig. 6", "reward curves for AIAD vs MIMD action spaces");

  struct Variant {
    std::string label;
    ActionMode mode;
    double scale;
  };
  const std::vector<Variant> variants = {
      {"aiad-1", ActionMode::kAiad, 1},   {"aiad-5", ActionMode::kAiad, 5},
      {"aiad-10", ActionMode::kAiad, 10}, {"mimd-1", ActionMode::kMimdOrca, 1},
      {"mimd-2", ActionMode::kMimdOrca, 2},
  };

  TrainEnvRanges env;
  env.capacity_lo_mbps = env.capacity_hi_mbps = 100;
  env.rtt_lo = env.rtt_hi = msec(100);
  env.buffer_lo = env.buffer_hi = 100e6 / 8 * 0.1;
  env.loss_lo = env.loss_hi = 0;
  env.episode_length = sec(5);
  constexpr int kEpisodes = 240;
  constexpr int kBucket = 30;

  std::vector<std::vector<double>> curves;
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    RlCcaConfig cfg;  // libra state space
    cfg.action_mode = variants[vi].mode;
    cfg.action_scale = variants[vi].scale;
    cfg.aiad_step = mbps(1);
    auto brain = std::make_shared<RlBrain>(make_ppo_config(cfg, 51 + vi),
                                           feature_frame_size(cfg.features));
    Trainer trainer(env, 29);
    auto stats = trainer.train_parallel(
        [&cfg](const std::shared_ptr<RlBrain>& b) {
          RlCcaConfig c = cfg;
          c.training = true;
          return std::make_unique<RlCca>(c, b);
        },
        brain, kEpisodes, default_pool());
    // Same uniform quality score as the Fig. 5 bench (training rewards are
    // design-internal and not comparable across action maps).
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
    curves.push_back(std::move(curve));
  }

  Table t({"episodes", "aiad-1", "aiad-5", "aiad-10", "mimd-1", "mimd-2"});
  for (std::size_t b = 0; b < curves[0].size(); ++b) {
    std::vector<std::string> row{std::to_string((b + 1) * kBucket)};
    for (auto& c : curves) row.push_back(fmt(c[b], 2));
    t.add_row(row);
  }
  section("Bucketed episode quality score "
          "(paper: MIMD ramps faster; small-scale AIAD slowest)");
  t.print();

  // Mean achieved utilization over the final bucket, the practical effect.
  Table u({"variant", "final-bucket score"});
  for (std::size_t vi = 0; vi < variants.size(); ++vi)
    u.add_row({variants[vi].label, fmt(curves[vi].back(), 2)});
  u.print();
  return 0;
}
