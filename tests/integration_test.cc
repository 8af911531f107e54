// Cross-module integration tests: full scenarios through the harness with
// trained-free (tiny) brains, exercising the paper's experiment shapes at
// reduced scale so the suite stays fast.
#include <gtest/gtest.h>

#include "classic/bbr.h"
#include "classic/cubic.h"
#include "core/factory.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "stats/convergence.h"
#include "stats/fairness.h"

namespace libra {
namespace {

std::shared_ptr<RlBrain> tiny_brain(std::uint64_t seed = 3) {
  RlCcaConfig cfg = libra_rl_config();
  return std::make_shared<RlBrain>(make_ppo_config(cfg, seed, {8, 8}),
                                   feature_frame_size(cfg.features));
}

CcaFactory tiny_c_libra_factory() {
  auto brain = tiny_brain();
  return [brain] {
    RlCcaConfig cfg = libra_rl_config();
    cfg.training = false;
    cfg.external_control = true;
    return std::make_unique<Libra>(c_libra_params(), std::make_unique<Cubic>(),
                                   std::make_unique<RlCca>(cfg, brain));
  };
}

TEST(Integration, LibraOnLteTraceSustainsThroughput) {
  Scenario s = lte_scenario(LteProfile::kWalking, "lte-walking");
  s.duration = sec(30);
  RunSummary sum = run_single(s, tiny_c_libra_factory(), 7);
  EXPECT_GT(sum.link_utilization, 0.5);
  EXPECT_LT(sum.avg_delay_ms, 250.0);
}

TEST(Integration, LibraSurvivesStochasticLoss) {
  Scenario s = wired_scenario(24);
  s.link.stochastic_loss = 0.05;
  s.duration = sec(20);
  RunSummary libra_sum = run_single(s, tiny_c_libra_factory(), 7);
  RunSummary cubic_sum =
      run_single(s, [] { return std::make_unique<Cubic>(); }, 7);
  // The paper's Fig. 10 shape: C-Libra beats CUBIC under random loss because
  // x_rl / x_prev candidates cancel spurious window reductions.
  EXPECT_GT(libra_sum.link_utilization, cubic_sum.link_utilization);
}

TEST(Integration, LibraTracksStepScenario) {
  Scenario s = step_scenario();
  auto net = run_scenario(s, {{tiny_c_libra_factory()}}, 7);
  // During the 5 Mbps dip (10-20 s), the flow must not overshoot wildly.
  double dip_thr = net->flow(0).throughput_in(sec(13), sec(19));
  EXPECT_LT(dip_thr, mbps(7));
  EXPECT_GT(dip_thr, mbps(2));
  // During the 25 Mbps level (40-50 s), it must climb well above the dip.
  // (With the untrained test brain the ramp is CUBIC-paced, so the bar is
  // recovery, not full utilization — the trained-brain bench shows the rest.)
  double high_thr = net->flow(0).throughput_in(sec(44), sec(50));
  EXPECT_GT(high_thr, mbps(7));
}

TEST(Integration, InterProtocolFairnessVsCubic) {
  Scenario s = wired_scenario(48, msec(30), 300 * 1000);
  s.duration = sec(40);
  auto net = run_scenario(
      s, {{tiny_c_libra_factory()}, {[] { return std::make_unique<Cubic>(); }}}, 7);
  double libra_thr = net->flow(0).throughput_in(sec(15), sec(40));
  double cubic_thr = net->flow(1).throughput_in(sec(15), sec(40));
  // Neither flow may starve (the paper's bar: don't starve CUBIC, don't be
  // starved by it).
  EXPECT_GT(jain_index({libra_thr, cubic_thr}), 0.6);
  EXPECT_GT(libra_thr, mbps(5));
  EXPECT_GT(cubic_thr, mbps(5));
}

TEST(Integration, IntraProtocolFairnessTwoLibras) {
  Scenario s = wired_scenario(48, msec(30), 300 * 1000);
  s.duration = sec(40);
  auto factory = tiny_c_libra_factory();
  auto net = run_scenario(s, {{factory}, {factory}}, 7);
  double a = net->flow(0).throughput_in(sec(15), sec(40));
  double b = net->flow(1).throughput_in(sec(15), sec(40));
  EXPECT_GT(jain_index({a, b}), 0.75);
}

TEST(Integration, ThreeFlowConvergenceAnalysis) {
  Scenario s = wired_scenario(48, msec(30), 300 * 1000);
  s.duration = sec(40);
  auto net = run_scenario(s,
                          {{[] { return std::make_unique<Cubic>(); }, 0},
                           {[] { return std::make_unique<Cubic>(); }, sec(5)},
                           {[] { return std::make_unique<Cubic>(); }, sec(10)}},
                          7);
  // The third flow's convergence per the paper's Tab. 5 definition.
  auto bins = net->flow(2).rate_bins(msec(500), sec(10), sec(40));
  auto res = analyze_convergence(bins, msec(500));
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.convergence_time, sec(25));
  EXPECT_GT(res.mean_after, mbps(8));
}

TEST(Integration, WanProfilesRunEndToEnd) {
  for (Scenario s : {wan_inter_continental(), wan_intra_continental()}) {
    s.duration = sec(15);
    // CUBIC is genuinely loss-limited on the inter-continental profile
    // (1.2% random loss at 180 ms RTT); the bar is "makes progress".
    RunSummary sum = run_single(s, [] { return std::make_unique<Cubic>(); }, 3);
    EXPECT_GT(sum.total_throughput_bps, kbps(400)) << s.name;
  }
}

TEST(Integration, ExtensionProfilesRunEndToEnd) {
  for (Scenario s : {satellite_scenario(), fiveg_scenario()}) {
    s.duration = sec(15);
    RunSummary sum = run_single(s, tiny_c_libra_factory(), 3);
    EXPECT_GT(sum.total_throughput_bps, kbps(500)) << s.name;
  }
}

TEST(Integration, BbrPinsToPolicerRateAndRecoversWhenItLifts) {
  // A 40 Mbps path gets a 10 Mbps token-bucket policer over [2 s, 4 s). BBR's
  // long-term estimator must engage shortly after onset (two agreeing 4-RTT
  // intervals at base RTT 20 ms, plus loss-detection latency), pin pacing to
  // the policed rate, and let go after the policer lifts.
  Scenario s = policed_wan_scenario(40.0, 10.0, 30 * 1000, sec(2));
  s.link.policer_stop = sec(4);
  s.duration = sec(8);
  Network net(s.link_config(11));
  net.add_flow(std::make_unique<Bbr>());
  net.run_until(sec(2));
  const Bbr& bbr = dynamic_cast<const Bbr&>(net.flow(0).sender().cca());
  EXPECT_FALSE(bbr.lt_use_bw()) << "engaged before the policer started";
  SimTime engaged_at = 0;
  for (SimTime t = sec(2); t <= sec(2) + msec(500); t += msec(10)) {
    net.run_until(t);
    if (bbr.lt_use_bw()) {
      engaged_at = t;
      break;
    }
  }
  ASSERT_GT(engaged_at, 0) << "lt_bw never engaged on the policed link";
  // 8 RTTs of sampling (160 ms) + one RTT of loss-detection latency, rounded
  // up to the 10 ms polling grid.
  EXPECT_LE(engaged_at, sec(2) + msec(200));
  EXPECT_NEAR(bbr.lt_bw(), mbps(10), mbps(3));
  // Pinned means unit gain: pacing is exactly lt_bw, no probe excursions.
  EXPECT_DOUBLE_EQ(bbr.pacing_rate(), static_cast<double>(bbr.lt_bw()));
  // After the policer lifts at 4 s, the 48-round expiry plus one clean probe
  // cycle must restore full-rate operation.
  net.run_until(sec(8));
  EXPECT_FALSE(bbr.lt_use_bw()) << "still pinned 4 s after the policer lifted";
  double recovered = net.flow(0).throughput_in(sec(6), sec(8));
  EXPECT_GT(recovered, mbps(20));
}

// The Fig. 17 shape: all three decision kinds occur in a dynamic scenario.
TEST(Integration, AllDecisionKindsOccur) {
  Scenario s = lte_scenario(LteProfile::kDriving, "lte-driving");
  s.duration = sec(30);
  auto brain = tiny_brain();
  RlCcaConfig cfg = libra_rl_config();
  cfg.training = false;
  cfg.external_control = true;
  auto libra = std::make_unique<Libra>(c_libra_params(), std::make_unique<Cubic>(),
                                       std::make_unique<RlCca>(cfg, brain));
  Libra* ptr = libra.get();
  Network net(s.link_config(7));
  net.add_flow(std::move(libra));
  net.run_until(s.duration);
  const DecisionCounts& d = ptr->decision_counts();
  EXPECT_GT(d.total(), 20);
  EXPECT_GT(d.prev, 0);
  EXPECT_GT(d.classic, 0);
}

}  // namespace
}  // namespace libra
