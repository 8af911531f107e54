#include "harness/zoo.h"

#include <filesystem>
#include <stdexcept>

#include "classic/bbr.h"
#include "classic/compound.h"
#include "classic/copa.h"
#include "classic/cubic.h"
#include "classic/dctcp.h"
#include "classic/illinois.h"
#include "classic/newreno.h"
#include "classic/sprout_ewma.h"
#include "classic/vegas.h"
#include "classic/westwood.h"
#include "core/factory.h"
#include "harness/parallel.h"
#include "harness/trainer.h"
#include "learned/aurora.h"
#include "learned/indigo.h"
#include "learned/libra_rl.h"
#include "learned/orca.h"
#include "learned/remy.h"
#include "learned/vivace.h"

namespace libra {

CcaZoo::CcaZoo(ZooConfig config) : config_(std::move(config)) {}

std::vector<std::string> CcaZoo::all_names() {
  return {"cubic",   "bbr",     "newreno",  "vegas",       "westwood",
          "illinois", "copa",  "compound", "dctcp", "sprout", "vivace",
          "proteus", "remy",    "indigo",  "aurora",   "orca",
          "modified-rl", "libra-rl", "c-libra", "b-libra", "cl-libra"};
}

std::shared_ptr<RlBrain> CcaZoo::brain(const std::string& family) {
  {
    std::lock_guard<std::mutex> lock(brains_mu_);
    auto it = brains_.find(family);
    if (it != brains_.end()) return it->second;
  }
  // Train outside the lock (minutes of work); last writer wins if two
  // threads race to the same family — both produce identical brains.
  auto brain = train_or_load(family);
  std::lock_guard<std::mutex> lock(brains_mu_);
  brains_[family] = brain;
  return brain;
}

std::shared_ptr<RlBrain> CcaZoo::train_or_load(const std::string& family) {
  PpoConfig ppo;
  std::size_t frame_dim = 0;
  // Bound factories take the brain as an argument so that train_parallel can
  // rebind each episode to its per-episode collector snapshot.
  BrainBoundFactory train_factory;
  const std::vector<std::size_t> hidden{config_.hidden_width, config_.hidden_width};

  if (family == "libra-rl") {
    RlCcaConfig cfg = libra_rl_config();
    ppo = make_ppo_config(cfg, config_.seed, hidden);
    frame_dim = feature_frame_size(cfg.features);
    train_factory = [](const std::shared_ptr<RlBrain>& b) {
      return make_libra_rl(b, /*training=*/true);
    };
  } else if (family == "modified-rl") {
    RlCcaConfig cfg = modified_rl_config();
    ppo = make_ppo_config(cfg, config_.seed + 1, hidden);
    frame_dim = feature_frame_size(cfg.features);
    train_factory = [](const std::shared_ptr<RlBrain>& b) {
      return make_modified_rl(b, /*training=*/true);
    };
  } else if (family == "aurora") {
    RlCcaConfig cfg = aurora_config();
    ppo = make_ppo_config(cfg, config_.seed + 2, hidden);
    frame_dim = feature_frame_size(cfg.features);
    train_factory = [](const std::shared_ptr<RlBrain>& b) {
      return make_aurora(b, /*training=*/true);
    };
  } else if (family == "orca") {
    ppo = orca_ppo_config(config_.seed + 3, hidden);
    frame_dim = feature_frame_size(orca_state_space());
    train_factory = [](const std::shared_ptr<RlBrain>& b) {
      OrcaParams p;
      p.training = true;
      return std::make_unique<Orca>(p, b);
    };
  } else {
    throw std::out_of_range("CcaZoo: unknown brain family " + family);
  }
  // Every brain of a family starts from the same seeded initial weights.
  auto make_brain = [&] { return std::make_shared<RlBrain>(ppo, frame_dim); };

  std::string path;
  if (!config_.brain_dir.empty()) {
    std::filesystem::create_directories(config_.brain_dir);
    path = config_.brain_dir + "/" + family + ".brain";
    // Load into a brain of its own: a truncated or corrupt cache fails part
    // way through, and the weights it overwrote before failing must not be
    // what gets retrained.
    try {
      std::shared_ptr<RlBrain> cached = make_brain();
      if (load_brain(*cached, path)) return cached;
    } catch (const std::exception&) {
      // Stale (changed architecture) or corrupt cache: retrain below.
    }
  }

  // Aurora trains on its own published environment span (random loss <= 5%);
  // the Libra-paper env randomizes loss up to 10%, which is pure reward noise
  // for an agent that cannot influence it.
  TrainEnvRanges ranges;
  if (family == "aurora") ranges.loss_hi = 0.05;

  std::shared_ptr<RlBrain> brain = make_brain();
  Trainer trainer(ranges, config_.seed ^ 0x5EED);
  if (config_.train_telemetry && !config_.brain_dir.empty()) {
    // Learning curves are artifacts next to the brain they explain.
    trainer.set_telemetry(StreamLineSink::open_file(
        config_.brain_dir + "/" + family + ".train.jsonl"));
  }
  trainer.train_parallel(train_factory, brain, config_.train_episodes, default_pool());
  if (!path.empty()) save_brain(*brain, path);
  return brain;
}

CcaFactory CcaZoo::factory(const std::string& name) {
  if (name == "cubic") return [] { return std::make_unique<Cubic>(); };
  if (name == "bbr") return [] { return std::make_unique<Bbr>(); };
  if (name == "newreno") return [] { return std::make_unique<NewReno>(); };
  if (name == "vegas") return [] { return std::make_unique<Vegas>(); };
  if (name == "westwood") return [] { return std::make_unique<Westwood>(); };
  if (name == "illinois") return [] { return std::make_unique<Illinois>(); };
  if (name == "copa") return [] { return std::make_unique<Copa>(); };
  if (name == "compound") return [] { return std::make_unique<CompoundTcp>(); };
  if (name == "dctcp") return [] { return std::make_unique<Dctcp>(); };
  if (name == "sprout") return [] { return std::make_unique<SproutEwma>(); };
  if (name == "vivace") return [] { return std::make_unique<Vivace>(); };
  if (name == "proteus") return [] { return make_proteus(); };
  if (name == "remy") return [] { return std::make_unique<Remy>(); };
  if (name == "indigo") return [] { return std::make_unique<Indigo>(); };
  if (name == "aurora") {
    auto b = brain("aurora");
    return [b] { return make_aurora(b, /*training=*/false); };
  }
  if (name == "orca") {
    auto b = brain("orca");
    return [b] { return std::make_unique<Orca>(OrcaParams{}, b); };
  }
  if (name == "modified-rl") {
    auto b = brain("modified-rl");
    return [b] { return make_modified_rl(b, /*training=*/false); };
  }
  if (name == "libra-rl") {
    auto b = brain("libra-rl");
    return [b] { return make_libra_rl(b, /*training=*/false); };
  }
  if (name == "c-libra") {
    auto b = brain("libra-rl");
    return [b] { return make_c_libra(b); };
  }
  if (name == "b-libra") {
    auto b = brain("libra-rl");
    return [b] { return make_b_libra(b); };
  }
  if (name == "cl-libra") {
    auto b = brain("libra-rl");
    return [b] { return make_clean_slate_libra(b); };
  }
  throw std::out_of_range("CcaZoo: unknown CCA " + name);
}

}  // namespace libra
