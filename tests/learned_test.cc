#include <gtest/gtest.h>

#include <filesystem>

#include "learned/aurora.h"
#include "learned/indigo.h"
#include "learned/libra_rl.h"
#include "learned/monitor.h"
#include "learned/orca.h"
#include "learned/remy.h"
#include "learned/rl_cca.h"
#include "learned/vivace.h"
#include "sim/network.h"

namespace libra {
namespace {

constexpr std::int64_t kMss = kDefaultPacketBytes;

AckEvent ack_at(SimTime now, std::uint64_t seq, SimDuration rtt = msec(50),
                SimDuration min_rtt = msec(50), RateBps delivery = mbps(10)) {
  return AckEvent{now, seq, now - rtt, rtt, kMss, 0, delivery, min_rtt};
}

TEST(MiCollector, ThroughputOverInterval) {
  MiCollector c;
  c.finish(0);  // open interval at t=0
  for (int i = 1; i <= 10; ++i) c.on_ack(ack_at(msec(10) * i, static_cast<std::uint64_t>(i)));
  MiReport r = c.finish(msec(100));
  // 10 * 1500 B over 100 ms = 1.2 Mbps.
  EXPECT_NEAR(r.throughput_bps, mbps(1.2), 1e3);
  EXPECT_EQ(r.acks, 10);
}

TEST(MiCollector, LossRate) {
  MiCollector c;
  c.finish(0);
  for (int i = 0; i < 8; ++i) c.on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i)));
  c.on_loss({msec(9), 8, 0, kMss, 0, false});
  c.on_loss({msec(10), 9, 0, kMss, 0, false});
  MiReport r = c.finish(msec(20));
  EXPECT_DOUBLE_EQ(r.loss_rate, 0.2);
}

TEST(MiCollector, RttGradientExact) {
  MiCollector c;
  c.finish(0);
  // RTT climbing 1 ms per 10 ms: slope 0.1.
  for (int i = 0; i < 10; ++i)
    c.on_ack(ack_at(msec(10) * i, static_cast<std::uint64_t>(i), msec(50) + msec(i)));
  MiReport r = c.finish(msec(100));
  EXPECT_NEAR(r.rtt_gradient, 0.1, 1e-6);
}

TEST(MiCollector, GapEwmasPersistAcrossIntervals) {
  MiCollector c;
  c.finish(0);
  c.on_ack(ack_at(msec(10), 0));
  c.on_ack(ack_at(msec(20), 1));
  MiReport r1 = c.finish(msec(30));
  EXPECT_NEAR(r1.ack_gap_ewma_s, 0.010, 1e-9);
  MiReport r2 = c.finish(msec(40));  // empty interval
  EXPECT_NEAR(r2.ack_gap_ewma_s, 0.010, 1e-9);
}

TEST(MiCollector, SentAckedRatio) {
  MiCollector c;
  c.finish(0);
  for (int i = 0; i < 4; ++i) c.on_send({msec(i), static_cast<std::uint64_t>(i), kMss, 0});
  c.on_ack(ack_at(msec(10), 0));
  c.on_ack(ack_at(msec(11), 1));
  MiReport r = c.finish(msec(20));
  EXPECT_DOUBLE_EQ(r.sent_acked_ratio, 2.0);
}

TEST(StateSpace, FrameSizes) {
  EXPECT_EQ(feature_frame_size(libra_state_space()), 4u);
  EXPECT_EQ(feature_frame_size(baseline_state_space()), 6u);  // (vi) is 2-wide
  EXPECT_EQ(feature_frame_size({StateFeature::kRttAndMinRtt}), 2u);
}

TEST(StateSpace, LibraUsesPaperCombination) {
  auto s = libra_state_space();
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0], StateFeature::kSendRate);        // (iv)
  EXPECT_EQ(s[1], StateFeature::kLossRate);        // (vii)
  EXPECT_EQ(s[2], StateFeature::kRttGradient);     // (viii)
  EXPECT_EQ(s[3], StateFeature::kDeliveryRate);    // (ix)
}

std::shared_ptr<RlBrain> tiny_brain(const RlCcaConfig& cfg, std::uint64_t seed = 3) {
  return std::make_shared<RlBrain>(make_ppo_config(cfg, seed, {8, 8}),
                                   feature_frame_size(cfg.features));
}

TEST(RlCca, RejectsMismatchedBrain) {
  RlCcaConfig a = libra_rl_config();
  RlCcaConfig b = aurora_config();
  auto brain = tiny_brain(a);
  EXPECT_THROW(RlCca(b, brain), std::invalid_argument);
}

TEST(RlCca, ActionModeMath) {
  // Drive the action maps directly through force_rate + a known action by
  // using tiny deterministic configs in greedy mode and checking clamps.
  RlCcaConfig cfg = libra_rl_config();
  cfg.min_rate = mbps(1);
  cfg.max_rate = mbps(10);
  auto brain = tiny_brain(cfg);
  RlCca cca(cfg, brain);
  cca.force_rate(mbps(100));  // must clamp
  EXPECT_DOUBLE_EQ(cca.current_rate(), mbps(10));
  cca.force_rate(mbps(0.1));
  EXPECT_DOUBLE_EQ(cca.current_rate(), mbps(1));
}

TEST(RlCca, ExternalControlHoldsRateWithoutAcks) {
  RlCcaConfig cfg = libra_rl_config();
  cfg.external_control = true;
  auto brain = tiny_brain(cfg);
  RlCca cca(cfg, brain);
  cca.external_begin(0, mbps(5));
  EXPECT_DOUBLE_EQ(cca.current_rate(), mbps(5));
  // No acks during the interval: decision must hold the rate (Sec. 3).
  EXPECT_DOUBLE_EQ(cca.external_decide(msec(100)), mbps(5));
}

TEST(RlCca, ExternalDecideUsesAgentAfterFeedback) {
  RlCcaConfig cfg = libra_rl_config();
  cfg.external_control = true;
  cfg.training = false;
  auto brain = tiny_brain(cfg);
  RlCca cca(cfg, brain);
  cca.external_begin(0, mbps(5));
  for (int i = 0; i < 10; ++i) cca.on_ack(ack_at(msec(10) * (i + 1), static_cast<std::uint64_t>(i)));
  RateBps decided = cca.external_decide(msec(120));
  // MIMD 2^a with a in [-2, 2]: decided rate within [5/4, 5*4] Mbps.
  EXPECT_GE(decided, mbps(5) / 4.0);
  EXPECT_LE(decided, mbps(5) * 4.0);
}

TEST(RlCca, ExternalControlDisablesAutoMi) {
  RlCcaConfig cfg = libra_rl_config();
  cfg.external_control = true;
  cfg.training = false;
  auto brain = tiny_brain(cfg);
  RlCca cca(cfg, brain);
  cca.external_begin(0, mbps(5));
  for (int i = 0; i < 50; ++i) {
    cca.on_ack(ack_at(msec(20) * (i + 1), static_cast<std::uint64_t>(i)));
    cca.on_tick(msec(20) * (i + 1));
  }
  // Rate untouched until external_decide is called.
  EXPECT_DOUBLE_EQ(cca.current_rate(), mbps(5));
}

TEST(RlCca, AutoMiAdjustsRate) {
  RlCcaConfig cfg = libra_rl_config();
  // Training mode: sampled actions guarantee movement (a greedy untrained
  // policy outputs ~0, i.e. the identity multiplier).
  cfg.training = true;
  cfg.mi_duration = msec(20);
  auto brain = tiny_brain(cfg);
  RlCca cca(cfg, brain);
  RateBps initial = cca.current_rate();
  SimTime t = 0;
  bool changed = false;
  for (int i = 0; i < 100; ++i) {
    t += msec(10);
    cca.on_ack(ack_at(t, static_cast<std::uint64_t>(i)));
    cca.on_tick(t);
    if (cca.current_rate() != initial) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(RlCca, CwndCapsInflightAtTwoBdp) {
  RlCcaConfig cfg = libra_rl_config();
  auto brain = tiny_brain(cfg);
  RlCca cca(cfg, brain);
  EXPECT_EQ(cca.cwnd_bytes(), kInfiniteCwnd);  // no RTT estimate yet
  cca.on_ack(ack_at(msec(50), 0, msec(100), msec(100)));
  cca.force_rate(mbps(8));
  // 2 * (8 Mbps * 100 ms) = 200 KB.
  EXPECT_NEAR(static_cast<double>(cca.cwnd_bytes()), 200e3, 20e3);
}

TEST(RlCca, EpisodeMetricsAccumulate) {
  RlCcaConfig cfg = libra_rl_config();
  cfg.mi_duration = msec(20);
  auto brain = tiny_brain(cfg);
  RlCca cca(cfg, brain);
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) {
    t += msec(10);
    cca.on_ack(ack_at(t, static_cast<std::uint64_t>(i)));
    cca.on_tick(t);
  }
  EXPECT_GT(cca.episode_steps(), 0);
  cca.reset_episode_metrics();
  EXPECT_EQ(cca.episode_steps(), 0);
}

TEST(BrainIo, SaveLoadRoundTrip) {
  RlCcaConfig cfg = libra_rl_config();
  auto a = tiny_brain(cfg, 5);
  auto b = tiny_brain(cfg, 6);
  std::string path = ::testing::TempDir() + "/test.brain";
  save_brain(*a, path);
  ASSERT_TRUE(load_brain(*b, path));
  Vector state(make_ppo_config(cfg, 0, {8, 8}).state_dim, 0.1);
  EXPECT_DOUBLE_EQ(a->agent.act_greedy(state), b->agent.act_greedy(state));
}

TEST(BrainIo, LoadRejectsAFileCutShort) {
  RlCcaConfig cfg = libra_rl_config();
  auto a = tiny_brain(cfg, 5);
  const std::string path = ::testing::TempDir() + "/cut.brain";
  save_brain(*a, path);
  // One byte short: every number still parses, only the final newline is
  // gone, which is what a file cut inside its last number looks like.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  auto b = tiny_brain(cfg, 6);
  EXPECT_THROW(load_brain(*b, path), std::runtime_error);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW(load_brain(*b, path), std::runtime_error);
}

TEST(BrainIo, LoadMissingReturnsFalse) {
  auto b = tiny_brain(libra_rl_config());
  EXPECT_FALSE(load_brain(*b, "/nonexistent/path.brain"));
}

TEST(Vivace, StartupDoublesUntilUtilityDrops) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(24));
  cfg.buffer_bytes = 100 * 1000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<Vivace>());
  net.run_until(sec(15));
  EXPECT_GT(net.link_utilization(sec(5), sec(15)), 0.75);
  EXPECT_LT(net.flow(0).loss_rate_in(0, sec(15)), 0.05);
}

TEST(Vivace, TracksCapacityDrop) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<PiecewiseTrace>(
      std::vector<PiecewiseTrace::Segment>{{0, mbps(24)}, {sec(12), mbps(8)}});
  cfg.buffer_bytes = 100 * 1000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<Vivace>());
  net.run_until(sec(30));
  double late = net.flow(0).throughput_in(sec(22), sec(30));
  EXPECT_LT(late, mbps(9.5));
  EXPECT_GT(late, mbps(5));
}

TEST(Proteus, IsMoreLatencyAverseThanVivace) {
  VivaceParams v, p = proteus_params();
  EXPECT_GT(p.utility.beta, v.utility.beta);
  EXPECT_LT(p.max_step_fraction, v.max_step_fraction);
}

TEST(Remy, CollapsesUnderHeavyQueueing) {
  Remy cc;
  // Feed low-RTT acks -> grows.
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) {
    t += msec(10);
    cc.on_ack(ack_at(t, static_cast<std::uint64_t>(i)));
  }
  std::int64_t grown = cc.cwnd_bytes();
  // Heavy queueing: rtt_ratio 2.5 -> collapse rule.
  for (int i = 0; i < 50; ++i) {
    t += msec(10);
    cc.on_ack(ack_at(t, 100 + static_cast<std::uint64_t>(i), msec(125), msec(50)));
  }
  EXPECT_LT(cc.cwnd_bytes(), grown);
}

TEST(Indigo, RampsWhileQueueEmptyThenSettles) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(24));
  cfg.buffer_bytes = 150 * 1000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<Indigo>());
  net.run_until(sec(20));
  double util = net.link_utilization(sec(8), sec(20));
  // Indigo's signature: solid but deliberately under-utilized equilibrium.
  EXPECT_GT(util, 0.5);
  EXPECT_LT(util, 0.99);
}

TEST(Orca, AppliesMultiplierToCubicWindow) {
  OrcaParams params;
  params.decision_period = msec(50);
  params.training = false;
  auto brain = make_orca_brain(7);
  Orca orca(params, brain);
  std::int64_t w0 = orca.cwnd_bytes();
  SimTime t = 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) {
    t += msec(10);
    orca.on_packet_sent({t, seq, kMss, 10 * kMss});
    orca.on_ack(ack_at(t, seq));
    orca.on_tick(t);
    ++seq;
  }
  // CUBIC slow start + periodic 2^a overrides: the window must have moved,
  // and stays within the [1/4, 4]x band of CUBIC-reachable values.
  EXPECT_NE(orca.cwnd_bytes(), w0);
  EXPECT_GE(orca.cwnd_bytes(), 2 * kMss);
}

TEST(Orca, EndToEndFillsLink) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(24));
  cfg.buffer_bytes = 150 * 1000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  auto brain = make_orca_brain(7);
  OrcaParams params;
  params.training = false;
  net.add_flow(std::make_unique<Orca>(params, brain));
  net.run_until(sec(20));
  EXPECT_GT(net.link_utilization(sec(5), sec(20)), 0.6);
}

TEST(ModifiedRl, ConfigAppliesEq1Reward) {
  RlCcaConfig cfg = modified_rl_config();
  EXPECT_TRUE(cfg.reward_is_eq1_utility);
  EXPECT_EQ(cfg.reward_mode, RewardMode::kAbsolute);
}

TEST(AuroraConfig, MatchesPublishedFormulation) {
  RlCcaConfig cfg = aurora_config();
  EXPECT_EQ(cfg.action_mode, ActionMode::kMimdAurora);
  EXPECT_DOUBLE_EQ(cfg.aurora_delta, 0.025);
  EXPECT_EQ(cfg.reward_mode, RewardMode::kAbsolute);
  EXPECT_EQ(cfg.history, 10u);
}

}  // namespace
}  // namespace libra
