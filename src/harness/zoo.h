// CCA registry ("zoo"): builds any algorithm in the repo by name and manages
// the trained brains the learned algorithms share. Brains are trained once
// per process (or loaded from a cache directory) so repeated-experiment
// benches reuse a single policy, as the paper's offline-trained agents do.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "learned/rl_cca.h"

namespace libra {

struct ZooConfig {
  /// Directory for cached trained policies; "" disables caching.
  std::string brain_dir = "brains";
  int train_episodes = 400;
  /// Hidden-layer width of the PPO actor/critic. The paper uses 512; the
  /// default trains fast with near-identical policy quality at these state
  /// sizes. The overhead benches use 512 to measure paper-scale model cost.
  std::size_t hidden_width = 64;
  std::uint64_t seed = 42;
  /// Stream training telemetry (learning curves, PPO update stats) to
  /// `<brain_dir>/<family>.train.jsonl` while training. Needs brain_dir;
  /// pure observation — the trained weights are identical either way.
  bool train_telemetry = true;
};

class CcaZoo {
 public:
  explicit CcaZoo(ZooConfig config = {});

  /// Names: cubic bbr newreno vegas westwood illinois copa compound dctcp
  /// sprout vivace proteus remy indigo aurora orca modified-rl libra-rl
  /// c-libra b-libra cl-libra. Throws std::out_of_range on unknown names.
  /// Learned CCAs act greedily, like the paper's frozen offline-trained
  /// models.
  CcaFactory factory(const std::string& name);

  static std::vector<std::string> all_names();

  /// Trained (or loading/cached) brain for a learned family:
  /// "libra-rl", "aurora", "orca", "modified-rl".
  std::shared_ptr<RlBrain> brain(const std::string& family);

  const ZooConfig& config() const { return config_; }

 private:
  std::shared_ptr<RlBrain> train_or_load(const std::string& family);

  ZooConfig config_;
  std::mutex brains_mu_;
  std::map<std::string, std::shared_ptr<RlBrain>> brains_;
};

}  // namespace libra
