// Parameterized robustness sweeps: every CCA must make progress (no deadlock,
// no runaway queue) across a grid of buffer depths, loss rates and RTTs, and
// Libra must stay live across its whole parameter envelope.
//
// Both grids execute as one RunRequest batch through run_many (fanned across
// the pool, built once in SetUpTestSuite), while each grid point remains its
// own registered test asserting against its slot of the shared results.
#include <gtest/gtest.h>

#include "core/factory.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/zoo.h"

namespace libra {
namespace {

std::shared_ptr<RlBrain> tiny_brain() {
  RlCcaConfig cfg = libra_rl_config();
  static auto brain = std::make_shared<RlBrain>(
      make_ppo_config(cfg, 3, {8, 8}), feature_frame_size(cfg.features));
  return brain;
}

// --- Liveness grid over network conditions, per CCA -------------------------
struct GridPoint {
  std::string cca;
  std::int64_t buffer;
  double loss;
  SimDuration rtt;
};

const std::vector<GridPoint>& liveness_grid() {
  static const std::vector<GridPoint> grid = [] {
    std::vector<GridPoint> g;
    for (const char* cca : {"cubic", "bbr", "vegas", "copa", "compound",
                            "vivace", "sprout", "remy", "indigo"}) {
      g.push_back({cca, 20'000, 0.0, msec(20)});    // shallow buffer
      g.push_back({cca, 500'000, 0.0, msec(100)});  // deep buffer, long RTT
      g.push_back({cca, 150'000, 0.05, msec(30)});  // lossy
    }
    return g;
  }();
  return grid;
}

Scenario liveness_scenario(const GridPoint& g) {
  Scenario s = wired_scenario(24, g.rtt, g.buffer);
  s.link.stochastic_loss = g.loss;
  s.duration = sec(15);
  return s;
}

class CcaLiveness : public ::testing::TestWithParam<std::size_t> {
 protected:
  // One batch for the whole grid, fanned out through run_many.
  static void SetUpTestSuite() {
    if (!sums_.empty()) return;
    ZooConfig zc;
    zc.brain_dir = "";
    zc.train_episodes = 1;
    CcaZoo zoo(zc);
    std::vector<RunRequest> batch;
    for (const GridPoint& g : liveness_grid()) {
      batch.push_back(
          RunRequest::single(liveness_scenario(g), zoo.factory(g.cca), 7));
    }
    sums_ = run_many(batch);
  }

  static std::vector<RunSummary> sums_;
};

std::vector<RunSummary> CcaLiveness::sums_;

TEST_P(CcaLiveness, MakesProgressWithoutPathology) {
  const GridPoint& g = liveness_grid()[GetParam()];
  SCOPED_TRACE(g.cca + " buffer=" + std::to_string(g.buffer) +
               " loss=" + std::to_string(g.loss) +
               " rtt_ms=" + std::to_string(g.rtt / 1000));
  ASSERT_LT(GetParam(), sums_.size());
  const RunSummary& sum = sums_[GetParam()];
  // Liveness: the flow moves data...
  EXPECT_GT(sum.total_throughput_bps, kbps(50));
  // ...and never wedges the queue beyond the physical bound.
  EXPECT_LT(sum.avg_delay_ms,
            to_msec(g.rtt) +
                static_cast<double>(g.buffer) * 8 / mbps(24) * 1e3 + 50);
}

std::string liveness_name(const ::testing::TestParamInfo<std::size_t>& info) {
  const GridPoint& g = liveness_grid()[info.param];
  const char* cond = g.loss > 0 ? "lossy" : (g.buffer < 100'000 ? "shallow" : "deep");
  return g.cca + "_" + cond;
}

INSTANTIATE_TEST_SUITE_P(Grid, CcaLiveness,
                         ::testing::Range<std::size_t>(0, 27),
                         liveness_name);

// --- Libra parameter envelope ------------------------------------------------
struct LibraPoint {
  double exploration_rtts;
  double ei_rtts;
  double exploitation_rtts;
  double threshold;
};

const std::vector<LibraPoint>& libra_points() {
  static const std::vector<LibraPoint> points = {
      {1, 0.5, 1, 0.3},   {1, 1, 1, 0.3},     {2, 0.5, 2, 0.3},
      {3, 0.5, 3, 0.3},   {1, 0.5, 1, 0.1},   {1, 0.5, 1, 0.4},
      {0.5, 0.25, 0.5, 0.3}};
  return points;
}

class LibraEnvelope : public ::testing::TestWithParam<std::size_t> {
 protected:
  static void SetUpTestSuite() {
    if (!sums_.empty()) return;
    auto brain = tiny_brain();
    std::vector<RunRequest> batch;
    for (const LibraPoint& p : libra_points()) {
      LibraParams params = c_libra_params();
      params.exploration_rtts = p.exploration_rtts;
      params.ei_rtts = p.ei_rtts;
      params.exploitation_rtts = p.exploitation_rtts;
      params.switch_threshold = p.threshold;

      Scenario s = wired_scenario(24);
      s.duration = sec(15);
      batch.push_back(RunRequest::single(
          std::move(s),
          [brain, params] { return make_c_libra(brain, params); }, 5));
    }
    sums_ = run_many(batch);
  }

  static std::vector<RunSummary> sums_;
};

std::vector<RunSummary> LibraEnvelope::sums_;

TEST_P(LibraEnvelope, StaysLiveAndBounded) {
  const LibraPoint& p = libra_points()[GetParam()];
  SCOPED_TRACE("exploration=" + std::to_string(p.exploration_rtts) +
               " ei=" + std::to_string(p.ei_rtts) +
               " exploitation=" + std::to_string(p.exploitation_rtts) +
               " th=" + std::to_string(p.threshold));
  ASSERT_LT(GetParam(), sums_.size());
  EXPECT_GT(sums_[GetParam()].link_utilization, 0.4);
  EXPECT_LT(sums_[GetParam()].flows[0].loss_rate, 0.1);
}

INSTANTIATE_TEST_SUITE_P(Envelope, LibraEnvelope,
                         ::testing::Range<std::size_t>(0, 7));

// --- Utility-preference monotonicity ----------------------------------------
class PreferenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(PreferenceSweep, HigherAlphaNeverHurtsUtilityOfHigherRates) {
  // For any fixed network outcome pair (low rate clean vs high rate queued),
  // raising alpha must weakly favor the higher-rate outcome, raising beta the
  // lower-delay one — the algebra behind the Fig. 11 knob.
  int level = GetParam();
  UtilityParams th = throughput_oriented(level);
  UtilityParams la = latency_oriented(level);
  UtilityParams base;

  double low_u_base = utility(base, 45, 0.0, 0.0);
  double high_u_base = utility(base, 50, 0.05, 0.03);
  double low_u_th = utility(th, 45, 0.0, 0.0);
  double high_u_th = utility(th, 50, 0.05, 0.03);
  double low_u_la = utility(la, 45, 0.0, 0.0);
  double high_u_la = utility(la, 50, 0.05, 0.03);

  // Th scales the throughput term: the high-rate option gains more.
  EXPECT_GT(high_u_th - high_u_base, low_u_th - low_u_base);
  // La scales the gradient penalty: the high-rate (queued) option loses more.
  EXPECT_LT(high_u_la - high_u_base, low_u_la - low_u_base);
}

INSTANTIATE_TEST_SUITE_P(Levels, PreferenceSweep, ::testing::Values(1, 2));

}  // namespace
}  // namespace libra
