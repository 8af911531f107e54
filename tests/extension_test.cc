// Tests for the paper's Sec. 7 extensions and robustness/failure-injection
// paths not covered by the per-module suites.
#include <gtest/gtest.h>

#include "classic/illinois.h"
#include "classic/newreno.h"
#include "classic/westwood.h"
#include "core/factory.h"
#include "harness/runner.h"
#include "harness/scenario.h"

namespace libra {
namespace {

std::shared_ptr<RlBrain> tiny_brain(std::uint64_t seed = 3) {
  RlCcaConfig cfg = libra_rl_config();
  return std::make_shared<RlBrain>(make_ppo_config(cfg, seed, {8, 8}),
                                   feature_frame_size(cfg.features));
}

// Sec. 7: swapping the classic component.
class LibraOverClassic : public ::testing::TestWithParam<std::string> {};

std::unique_ptr<CongestionControl> make_classic(const std::string& name) {
  if (name == "westwood") return std::make_unique<Westwood>();
  if (name == "illinois") return std::make_unique<Illinois>();
  return std::make_unique<NewReno>();
}

TEST_P(LibraOverClassic, ConvergesOnFriendlyLink) {
  Scenario s = wired_scenario(24);
  s.duration = sec(20);
  auto brain = tiny_brain();
  RunSummary sum = run_single(
      s, [&] { return make_libra_over(make_classic(GetParam()), brain); },
      5);
  EXPECT_GT(sum.link_utilization, 0.6) << GetParam();
  EXPECT_LT(sum.avg_delay_ms, 150.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Classics, LibraOverClassic,
                         ::testing::Values("westwood", "illinois", "newreno"));

TEST(LibraOverClassic, NameReflectsComponent) {
  auto brain = tiny_brain();
  auto cca = make_libra_over(std::make_unique<Westwood>(), brain);
  EXPECT_EQ(cca->name(), "libra-westwood");
}

// Sec. 7 network profiles: satellite (long RTT, heavy random loss) and
// 5G-like abrupt swings — B-Libra-shaped robustness expectations.
TEST(ExtremeProfiles, LibraSurvivesSatellite) {
  Scenario s = satellite_scenario();
  s.duration = sec(40);
  auto brain = tiny_brain();
  RunSummary sum = run_single(
      s, [&] { return make_c_libra(brain); }, 3, sec(10));
  EXPECT_GT(sum.total_throughput_bps, mbps(0.5));
}

TEST(ExtremeProfiles, LibraSurvivesFiveG) {
  Scenario s = fiveg_scenario();
  s.duration = sec(25);
  auto brain = tiny_brain();
  RunSummary sum = run_single(s, [&] { return make_c_libra(brain); }, 3);
  EXPECT_GT(sum.link_utilization, 0.2);
}

// Failure injection: a flow that loses its entire first flight (dead link at
// start) must still come up once capacity appears.
TEST(FailureInjection, RecoversFromInitialBlackout) {
  LinkConfig cfg;
  cfg.capacity = std::make_unique<PiecewiseTrace>(
      std::vector<PiecewiseTrace::Segment>{{0, 0.0}, {sec(3), mbps(24)}});
  cfg.buffer_bytes = 150'000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  auto brain = tiny_brain();
  net.add_flow(make_c_libra(brain));
  net.run_until(sec(20));
  EXPECT_GT(net.flow(0).throughput_in(sec(10), sec(20)), mbps(5));
}

// Failure injection: mid-flow blackout of 2 s (LTE tunnel) with queued data.
TEST(FailureInjection, RecoversFromMidFlowBlackout) {
  LinkConfig cfg;
  cfg.capacity = std::make_unique<PiecewiseTrace>(
      std::vector<PiecewiseTrace::Segment>{
          {0, mbps(24)}, {sec(6), 0.0}, {sec(8), mbps(24)}});
  cfg.buffer_bytes = 150'000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<NewReno>());
  net.run_until(sec(20));
  EXPECT_GT(net.flow(0).throughput_in(sec(12), sec(20)), mbps(12));
}

// Sender robustness: minimum pacing floor keeps even a silenced controller
// trickling (so feedback can resume).
class SilentCca final : public CongestionControl {
 public:
  void on_ack(const AckEvent&) override {}
  void on_loss(const LossEvent&) override {}
  RateBps pacing_rate() const override { return 1.0; /* absurdly low */ }
  std::int64_t cwnd_bytes() const override { return kInfiniteCwnd; }
  std::string name() const override { return "silent"; }
};

TEST(SenderRobustness, MinPacingFloorApplies) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(10));
  cfg.buffer_bytes = 150'000;
  cfg.propagation_delay = msec(10);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<SilentCca>());
  net.run_until(sec(10));
  // 64 kbps floor -> at least ~50 packets in 10 s.
  EXPECT_GT(net.flow(0).sender().packets_acked(), 40);
}

// Stochastic inference must not destabilize Libra: repeated runs on the same
// wired link stay in a tight utilization band (the Fig. 2b/Tab. 6 property).
TEST(SafetyAssurance, LibraUtilizationTightAcrossSeeds) {
  Scenario s = wired_scenario(24);
  s.duration = sec(20);
  auto brain = tiny_brain();
  double lo = 1.0, hi = 0.0;
  for (int seed = 0; seed < 5; ++seed) {
    RunSummary sum = run_single(
        s, [&] { return make_c_libra(brain); },
        static_cast<std::uint64_t>(seed));
    lo = std::min(lo, sum.link_utilization);
    hi = std::max(hi, sum.link_utilization);
  }
  EXPECT_GT(lo, 0.6);
  EXPECT_LT(hi - lo, 0.35);
}

}  // namespace
}  // namespace libra
