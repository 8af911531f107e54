// Fleet engine tests: flow planning determinism, heavy-tail churn sanity,
// the serial/sharded bitwise-identity guarantee (classic and learned CCAs),
// finite-flow completion, many-flow fairness smoke checks, and the streaming
// health layer (detector regressions on real runs + byte-identical reports
// across engine modes).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "classic/bbr.h"
#include "classic/cubic.h"
#include "classic/dctcp.h"
#include "classic/newreno.h"
#include "classic/vegas.h"
#include "core/factory.h"
#include "harness/fleet_scenario.h"
#include "harness/zoo.h"
#include "learned/libra_rl.h"
#include "obs/health.h"
#include "sim/fleet.h"

namespace libra {
namespace {

bool plans_equal(const std::vector<FleetFlowPlan>& a,
                 const std::vector<FleetFlowPlan>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].start != b[i].start || a[i].stop != b[i].stop ||
        a[i].byte_budget != b[i].byte_budget ||
        a[i].enter_hop != b[i].enter_hop || a[i].exit_hop != b[i].exit_hop)
      return false;
  }
  return true;
}

TEST(FleetPlan, StaticPlanDrawsNothingFromTheSeed) {
  // Churn off => zero RNG draws, so the plan cannot depend on the seed and
  // adding the planner to a run cannot perturb any other seeded component.
  FleetSpec spec = incast_fleet(20);
  ASSERT_FALSE(spec.churn.enabled);
  EXPECT_TRUE(plans_equal(plan_fleet_flows(spec, 1), plan_fleet_flows(spec, 999)));
}

TEST(FleetPlan, StaticLayoutIsArithmetic) {
  FleetSpec spec = incast_fleet(5, 960.0, msec(10));
  auto plans = plan_fleet_flows(spec, 7);
  ASSERT_EQ(plans.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(plans[static_cast<std::size_t>(i)].start, i * msec(10));
    EXPECT_EQ(plans[static_cast<std::size_t>(i)].enter_hop, 0);
    EXPECT_EQ(plans[static_cast<std::size_t>(i)].byte_budget, -1);
  }
}

TEST(FleetPlan, ParkingLotSpansChainAndCrossTraffic) {
  FleetSpec spec = parking_lot_fleet(/*hops=*/3, /*cross_per_hop=*/2,
                                     /*long_flows=*/2);
  auto plans = plan_fleet_flows(spec, 1);
  ASSERT_EQ(plans.size(), 8u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(plans[static_cast<std::size_t>(i)].enter_hop, 0);
    EXPECT_EQ(plans[static_cast<std::size_t>(i)].exit_hop, 2);
  }
  for (int i = 0; i < 6; ++i) {
    const auto& p = plans[static_cast<std::size_t>(2 + i)];
    EXPECT_EQ(p.enter_hop, i % 3);
    EXPECT_EQ(p.exit_hop, p.enter_hop);  // span = 1
  }
}

TEST(FleetPlan, ChurnIsDeterministicPerSeedAndVariesAcrossSeeds) {
  FleetSpec spec = incast_fleet(4);
  spec.churn.enabled = true;
  spec.churn.arrivals_per_sec = 50.0;
  spec.duration = sec(5);
  auto a = plan_fleet_flows(spec, 11);
  auto b = plan_fleet_flows(spec, 11);
  auto c = plan_fleet_flows(spec, 12);
  EXPECT_TRUE(plans_equal(a, b));
  EXPECT_FALSE(plans_equal(a, c));
  EXPECT_GT(a.size(), 4u) << "expected churn arrivals within 5 s at 50/s";
}

TEST(FleetPlan, ChurnSizesAreHeavyTailedWithinBounds) {
  FleetSpec spec = incast_fleet(0);
  spec.churn.enabled = true;
  spec.churn.arrivals_per_sec = 200.0;
  spec.churn.min_bytes = 10 * 1000;
  spec.churn.max_bytes = 5 * 1000 * 1000;
  spec.churn.pareto_alpha = 1.2;
  spec.duration = sec(10);
  auto plans = plan_fleet_flows(spec, 3);
  ASSERT_GT(plans.size(), 500u);
  std::int64_t over_4x = 0;
  for (const auto& p : plans) {
    ASSERT_GE(p.byte_budget, spec.churn.min_bytes);
    ASSERT_LE(p.byte_budget, spec.churn.max_bytes);
    ASSERT_GE(p.start, spec.churn.start);
    ASSERT_LT(p.start, spec.duration);
    if (p.byte_budget >= 4 * spec.churn.min_bytes) ++over_4x;
  }
  // Bounded Pareto with alpha=1.2: P(X >= 4*min) ~ 4^-1.2 ~ 19%. A light
  // tail (exponential-ish) would put nearly nothing out there.
  const double frac =
      static_cast<double>(over_4x) / static_cast<double>(plans.size());
  EXPECT_GT(frac, 0.08);
  EXPECT_LT(frac, 0.40);
}

FleetSpec identity_spec() {
  // Multi-hop parking lot with cross traffic and churn: exercises every
  // cross-shard edge (sender->hop, hop->hop, hop->sender ACK) plus finite
  // flows arriving mid-run.
  FleetSpec spec = parking_lot_fleet(/*hops=*/3, /*cross_per_hop=*/3,
                                     /*long_flows=*/2, /*rate_mbps=*/48.0);
  spec.duration = sec(3);
  spec.warmup = sec(1);
  spec.churn.enabled = true;
  spec.churn.arrivals_per_sec = 10.0;
  spec.churn.min_bytes = 30 * 1000;
  spec.churn.max_bytes = 2 * 1000 * 1000;
  return spec;
}

std::unique_ptr<CongestionControl> mixed_classic(int flow) {
  switch (flow % 3) {
    case 0: return std::make_unique<Cubic>();
    case 1: return std::make_unique<NewReno>();
    default: return std::make_unique<Vegas>();
  }
}

TEST(FleetIdentity, ShardedMatchesSerialBitwiseForClassics) {
  const FleetSpec spec = identity_spec();
  FleetRunOptions serial;
  serial.mode = FleetMode::kSerial;
  const FleetSummary base = run_fleet(spec, mixed_classic, 42, serial);
  EXPECT_GT(base.total_throughput_bps, 0.0);
  for (std::size_t threads : {1u, 2u, 4u}) {
    FleetRunOptions sharded;
    sharded.mode = FleetMode::kSharded;
    sharded.threads = threads;
    const FleetSummary got = run_fleet(spec, mixed_classic, 42, sharded);
    EXPECT_TRUE(deterministically_equal(base, got))
        << "sharded run diverged at threads=" << threads;
  }
}

TEST(FleetIdentity, ShardedMatchesSerialWithSenderShards) {
  FleetSpec spec = identity_spec();
  spec.churn.enabled = false;
  spec.sender_shards = 2;
  FleetRunOptions serial;
  const FleetSummary base = run_fleet(spec, mixed_classic, 7, serial);
  for (std::size_t threads : {1u, 2u, 4u}) {
    FleetRunOptions sharded;
    sharded.mode = FleetMode::kSharded;
    sharded.threads = threads;
    const FleetSummary got = run_fleet(spec, mixed_classic, 7, sharded);
    EXPECT_TRUE(deterministically_equal(base, got))
        << "sender shards diverged at threads=" << threads;
  }
}

TEST(FleetIdentity, ShardedMatchesSerialForLearnedCca) {
  // Frozen shared brain, greedy inference: the brain is read-only, so many
  // sharded flows may consult it concurrently; decisions must still be
  // bitwise identical to the serial engine.
  RlCcaConfig cfg = libra_rl_config();
  auto brain = std::make_shared<RlBrain>(make_ppo_config(cfg, 3, {8, 8}),
                                         feature_frame_size(cfg.features));
  auto make_flow = [&](int flow) -> std::unique_ptr<CongestionControl> {
    if (flow % 2 == 0) return std::make_unique<Cubic>();
    RlCcaConfig c = cfg;
    c.training = false;
    c.stochastic_inference = false;
    return std::make_unique<RlCca>(c, brain);
  };
  FleetSpec spec = parking_lot_fleet(/*hops=*/2, /*cross_per_hop=*/2,
                                     /*long_flows=*/2, /*rate_mbps=*/24.0);
  spec.duration = sec(3);
  spec.warmup = sec(1);
  FleetRunOptions serial;
  const FleetSummary base = run_fleet(spec, make_flow, 5, serial);
  EXPECT_GT(base.total_throughput_bps, 0.0);
  FleetRunOptions sharded;
  sharded.mode = FleetMode::kSharded;
  sharded.threads = 3;
  const FleetSummary got = run_fleet(spec, make_flow, 5, sharded);
  EXPECT_TRUE(deterministically_equal(base, got));
}

TEST(FleetEngine, FiniteFlowsFinishAndReportCompletion) {
  FleetSpec spec = incast_fleet(0, 96.0);
  spec.duration = sec(5);
  spec.warmup = 0;
  std::vector<FleetFlowPlan> ignored = plan_fleet_flows(spec, 1);
  FleetNetwork net(fleet_links(spec), fleet_options(spec, 1, {}));
  FleetFlowDef def;
  def.cca = std::make_unique<Cubic>();
  def.byte_budget = 500 * 1000;  // ~5 ms at 96 Mbps; finishes long before 5 s
  net.add_flow(std::move(def));
  net.run();
  const FleetSummary s = net.summarize();
  ASSERT_EQ(s.flows.size(), 1u);
  EXPECT_TRUE(net.sender(0).finished());
  EXPECT_GT(s.flows[0].completion_s, 0.0);
  EXPECT_LT(s.flows[0].completion_s, 5.0);
  EXPECT_GE(net.sender(0).delivered_bytes() +
                net.sender(0).packets_lost() * net.sender(0).config().packet_bytes,
            500 * 1000);
  // Finished flows leave the tick scan: the SoA row must be inactive.
  EXPECT_FALSE(net.flow(0).active);
}

TEST(FleetEngine, FlowRefTracksItsOwnSenderOnEveryShard) {
  // The hot rows are laid out shard-major, not by flow id, and a parking lot
  // interleaves flows across shards (cross flow i enters hop i % hops). So
  // every flow's FleetFlowRef must read the row its own sender refreshes:
  // a ref that indexed the rows by flow id would report another flow's (or
  // a spare, inactive) row.
  FleetSpec spec = parking_lot_fleet(/*hops=*/4, /*cross_per_hop=*/6,
                                     /*long_flows=*/2, /*rate_mbps=*/48.0);
  spec.duration = sec(2);
  spec.warmup = sec(1);
  const std::vector<FleetFlowPlan> plans = plan_fleet_flows(spec, 1);
  ASSERT_EQ(plans.size(), 26u);
  for (FleetMode mode : {FleetMode::kSerial, FleetMode::kSharded}) {
    SCOPED_TRACE(mode == FleetMode::kSerial ? "serial" : "sharded");
    FleetRunOptions run;
    run.mode = mode;
    run.threads = 2;
    FleetNetwork net(fleet_links(spec), fleet_options(spec, 1, run));
    for (std::size_t i = 0; i < plans.size(); ++i) {
      FleetFlowDef def;
      if (i % 2 == 0) {
        def.cca = std::make_unique<Cubic>();
      } else {
        def.cca = std::make_unique<Bbr>();
      }
      def.start = plans[i].start;
      def.stop = plans[i].stop;
      def.byte_budget = plans[i].byte_budget;
      def.enter_hop = plans[i].enter_hop;
      def.exit_hop = plans[i].exit_hop;
      net.add_flow(std::move(def));
    }
    net.run();
    ASSERT_EQ(net.shard_count(), 4u);
    for (int id = 0; id < net.flow_count(); ++id) {
      SCOPED_TRACE("flow " + std::to_string(id));
      const FleetFlowRef ref = net.flow(id);
      const Sender& snd = net.sender(id);
      EXPECT_EQ(&ref.sender, &snd);
      EXPECT_EQ(ref.sender.config().flow_id, id);
      EXPECT_TRUE(ref.active);
      EXPECT_EQ(ref.wants_tick, snd.cca().wants_tick());
      EXPECT_EQ(ref.send_headroom, snd.cca().cwnd_bytes() - snd.bytes_in_flight());
      EXPECT_EQ(ref.rto_deadline == kSimTimeMax, snd.bytes_in_flight() == 0);
    }
  }
}

TEST(FleetEngine, RejectsCrossShardDelayBelowLookahead) {
  FleetSpec spec = parking_lot_fleet(2, 1);
  spec.hop_delay = 0;  // cross-shard edge with zero delay: no valid lookahead
  EXPECT_THROW(run_fleet(
                   spec, [] { return std::make_unique<Cubic>(); }, 1),
               std::invalid_argument);
}

// CUBIC whose on_ack throws once the run reaches `at`.
class FailingCubic final : public CongestionControl {
 public:
  explicit FailingCubic(SimTime at) : at_(at) {}
  void on_packet_sent(const SendEvent& ev) override { cubic_.on_packet_sent(ev); }
  void on_ack(const AckEvent& ack) override {
    if (ack.now >= at_) throw std::runtime_error("FailingCubic: on_ack failed");
    cubic_.on_ack(ack);
  }
  void on_loss(const LossEvent& loss) override { cubic_.on_loss(loss); }
  bool wants_tick() const override { return cubic_.wants_tick(); }
  RateBps pacing_rate() const override { return cubic_.pacing_rate(); }
  std::int64_t cwnd_bytes() const override { return cubic_.cwnd_bytes(); }
  std::string name() const override { return "failing_cubic"; }

 private:
  Cubic cubic_;
  SimTime at_;
};

TEST(FleetEngine, ShardThatThrowsStopsEveryShardBeforeRunReturns) {
  // A flow entering hop 2 throws 1 s in, while the other three shards are
  // mid-run. run() must rethrow only once no thread runs a shard: the
  // network and its health accumulators are destroyed right after, so a
  // shard still running would write freed memory (the ASan and TSan legs
  // run this test).
  FleetSpec spec = parking_lot_fleet(/*hops=*/4, /*cross_per_hop=*/6,
                                     /*long_flows=*/2, /*rate_mbps=*/48.0);
  spec.duration = sec(3);
  spec.warmup = sec(1);
  const std::vector<FleetFlowPlan> plans = plan_fleet_flows(spec, 1);
  for (std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FleetRunOptions run;
    run.mode = FleetMode::kSharded;
    run.threads = threads;
    auto net = std::make_unique<FleetNetwork>(fleet_links(spec),
                                              fleet_options(spec, 1, run));
    net->enable_health();
    bool failing = false;
    for (const FleetFlowPlan& p : plans) {
      FleetFlowDef def;
      if (!failing && p.enter_hop == 2) {
        def.cca = std::make_unique<FailingCubic>(sec(1));
        failing = true;
      } else {
        def.cca = std::make_unique<Cubic>();
      }
      def.start = p.start;
      def.enter_hop = p.enter_hop;
      def.exit_hop = p.exit_hop;
      net->add_flow(std::move(def));
    }
    ASSERT_TRUE(failing);
    EXPECT_THROW(net->run(), std::runtime_error);
    net.reset();
  }
}

TEST(FleetEngine, TelemetryRequiresSerialMode) {
  FleetSpec spec = incast_fleet(2);
  FleetOptions opts = fleet_options(spec, 1, {});
  opts.mode = FleetMode::kSharded;
  FleetNetwork net(fleet_links(spec), opts);
  EXPECT_THROW(net.enable_telemetry(TelemetryConfig{}), std::logic_error);
}

TEST(FleetFairness, HundredFlowIncastIsFairForEveryClassic) {
  // 100 synchronized long flows through one bottleneck: every classic CCA
  // must keep the fan-in roughly fair (Jain over window throughputs) and
  // every flow must make progress.
  struct Expectation {
    const char* name;
    double min_jain;
    int min_moved;
  };
  // Copa is covered by FleetHealthRegression.MinRttCorruptionFiresOnCopaOnly
  // instead: its 100-flow incast collapse is a documented pathology, and the
  // health detector pins down its signature (corrupted min_rtt baseline +
  // lockout) far more precisely than a loose fairness floor ever did.
  const Expectation kExpect[] = {
      {"cubic", 0.7, 100},   {"newreno", 0.7, 100}, {"vegas", 0.7, 100},
      {"westwood", 0.7, 100}, {"illinois", 0.7, 100}, {"compound", 0.7, 100},
      {"sprout", 0.6, 100},
  };
  CcaZoo zoo;  // classic factories only; no brains are trained here
  for (const Expectation& e : kExpect) {
    FleetSpec spec = incast_fleet(100, /*rate_mbps=*/480.0, msec(1));
    // ~1 BDP of shared buffer; the default 150 KB is ~6% of BDP here and
    // starves a tail of the fan-in under droptail.
    spec.buffer_bytes = 900 * 1000;
    spec.duration = sec(6);
    spec.warmup = sec(2);
    const FleetSummary s = run_fleet(spec, zoo.factory(e.name), 17);
    EXPECT_GT(s.jain_fairness, e.min_jain) << e.name;
    int moved = 0;
    for (const auto& f : s.flows)
      if (f.throughput_bps > 0) ++moved;
    EXPECT_GE(moved, e.min_moved) << e.name << ": flows starved of all bytes";
    EXPECT_GT(s.hop_utilization[0], 0.5) << e.name;
  }
}

TEST(FleetHealthRegression, MinRttCorruptionFiresOnSyntheticIncastCollapse) {
  // The documented (pre-fix) Copa 100-flow synchronized-incast collapse: the
  // startup storm never let the ~1 BDP droptail queue drain, late arrivals
  // folded the standing queue into their lifetime min_rtt, their queue
  // estimate dq = rtt_standing - min_rtt read near zero, and the 1/(delta*dq)
  // target rate locked them out. Copa no longer reproduces this organically
  // (its min-RTT baseline is windowed and it backs off under loss — see the
  // fair-share regression below), so the detector is driven from a synthetic
  // timeline replaying the recorded signature: 29 winners at the 1 ms path
  // floor, 71 flows whose baseline absorbed the full 29 ms standing queue
  // and whose goodput collapsed to ~0. The detector's threshold/lockout
  // gates themselves stay covered by health_test.cc.
  constexpr int kFlows = 100, kWindows = 60, kWinners = 29;
  FleetTimeline tl;
  tl.config = FleetStatsConfig{};  // 100 ms windows
  tl.duration = static_cast<SimDuration>(kWindows) * tl.config.window;
  tl.n_windows = kWindows;
  tl.metas.assign(kFlows, FleetFlowMeta{});
  tl.rows.assign(static_cast<std::size_t>(kFlows * kWindows), FlowWindowRow{});
  for (int f = 0; f < kFlows; ++f) {
    const bool winner = f < kWinners;
    tl.metas[static_cast<std::size_t>(f)].min_rtt_us = winner ? 1'000 : 29'000;
    for (int w = 0; w < kWindows; ++w) {
      FlowWindowRow& row =
          tl.rows[static_cast<std::size_t>(f * kWindows + w)];
      // Winners split the link; losers trickle ~0.1% of a fair share.
      row.acked_bytes = winner ? 200'000 : 60;
      row.sent = winner ? 150 : 3;
      row.lost = winner ? 10 : 2;
      row.rtt_samples = winner ? 100 : 1;
      row.rtt_sum_us = row.rtt_samples * 29'000;
      row.rtt_min_us = winner ? 1'000 : 29'000;
      row.rtt_p95_us = 29'000;
    }
  }
  const HealthReport r = analyze_health(tl);
  EXPECT_EQ(r.count(IncidentKind::kMinRttCorruption), kFlows - kWinners)
      << "every locked-out flow with a corrupted baseline is an incident";
  for (const Incident& inc : r.incidents) {
    if (inc.kind != IncidentKind::kMinRttCorruption) continue;
    EXPECT_GE(inc.flow, kWinners) << "winners at the path floor must not fire";
  }
}

TEST(FleetHealthRegression, CopaHoldsFairShareOnTheIncastThatLockedItOut) {
  // Regression for the fix itself: the exact 100-flow synchronized incast
  // (480 Mbps, ~1 BDP shared droptail, seed 17) that used to lock 71 Copa
  // flows out at <1% of fair share. With the windowed min-RTT baseline and
  // the once-per-window loss backoff, every flow must now hold at least half
  // its fair share, and the min_rtt_corruption detector must stay silent for
  // Copa — as it always did for a loss-based (CUBIC) and a model-based (BBR)
  // CCA in the same deep buffer.
  CcaZoo zoo;
  for (const char* name : {"copa", "cubic", "bbr"}) {
    FleetSpec spec = incast_fleet(100, /*rate_mbps=*/480.0, msec(1));
    spec.buffer_bytes = 900 * 1000;  // ~1 BDP shared droptail
    spec.duration = sec(6);
    spec.warmup = sec(2);
    FleetRunOptions run;
    run.health = true;
    FleetObsResult obs;
    const FleetSummary s = run_fleet(spec, zoo.factory(name), 17, run, &obs);
    EXPECT_EQ(obs.health.count(IncidentKind::kMinRttCorruption), 0)
        << name << ": corrupted-baseline lockout on a CCA that keeps its share";
    if (std::string(name) != "copa") continue;
    const double fair = s.total_throughput_bps / 100.0;
    double worst = s.flows[0].throughput_bps;
    for (const auto& f : s.flows) worst = std::min(worst, f.throughput_bps);
    EXPECT_GE(worst, 0.5 * fair)
        << "a Copa flow fell below half its fair share (pre-fix: <1%)";
  }
}

TEST(FleetDatacenter, DctcpHoldsQueueBelowDroptailAtEqualGoodput) {
  // The DCTCP promise (Alizadeh et al., SIGCOMM 2010): with a shallow marking
  // threshold the switch queue stays near K while goodput matches what a
  // loss-driven CCA extracts from the same deep-buffered incast.
  const std::int64_t kBuffer = 2 * 1000 * 1000;  // deep: droptail fills it
  auto run = [kBuffer](std::int64_t ecn_bytes, auto make_cca,
                       std::int64_t* max_queue) {
    FleetSpec spec = incast_fleet(100, /*rate_mbps=*/960.0, msec(1));
    spec.duration = sec(2);
    spec.warmup = msec(500);
    spec.buffer_bytes = kBuffer;
    spec.ecn_threshold_bytes = ecn_bytes;
    std::vector<FleetFlowPlan> plans = plan_fleet_flows(spec, 11);
    FleetNetwork net(fleet_links(spec), fleet_options(spec, 11, {}));
    for (const FleetFlowPlan& p : plans) {
      FleetFlowDef def;
      def.cca = make_cca();
      def.start = p.start;
      def.enter_hop = p.enter_hop;
      def.exit_hop = p.exit_hop;
      net.add_flow(std::move(def));
    }
    net.run();
    *max_queue = net.hop(0).max_queue_bytes();
    return net.summarize();
  };
  std::int64_t dctcp_queue = 0;
  std::int64_t droptail_queue = 0;
  const FleetSummary dctcp =
      run(45 * 1000, [] { return std::make_unique<Dctcp>(); }, &dctcp_queue);
  const FleetSummary droptail =
      run(0, [] { return std::make_unique<Cubic>(); }, &droptail_queue);
  // Equal goodput: the marks must not cost throughput.
  EXPECT_GE(dctcp.total_throughput_bps, 0.9 * droptail.total_throughput_bps);
  // ... while the post-warmup queueing delay stays well below what CUBIC
  // builds (measured: ~14 ms vs ~29 ms on 10 ms of propagation). The lifetime
  // high-water mark only gets a strict bound: the synchronized slow-start
  // storm overshoots before the first CE echoes arrive, so the transient —
  // not the standing queue — dominates it for both CCAs, and CUBIC's is
  // pinned at the full buffer.
  EXPECT_LT(dctcp.avg_delay_ms, 0.6 * droptail.avg_delay_ms);
  EXPECT_LT(dctcp_queue, droptail_queue);
  EXPECT_GT(droptail_queue, kBuffer * 9 / 10)
      << "baseline did not fill the buffer; the comparison is vacuous";
}

TEST(FleetIdentity, ShardedMatchesSerialForDctcpEcnIncast) {
  // The CE mark is decided at the hop's owning shard and rides the delivered
  // packet back through the ACK edge: a new cross-shard signal path that must
  // not perturb bitwise identity.
  FleetSpec spec = incast_fleet(24, /*rate_mbps=*/240.0, msec(1));
  spec.duration = sec(2);
  spec.warmup = msec(500);
  spec.ecn_threshold_bytes = 45 * 1000;
  auto dctcp = [](int) -> std::unique_ptr<CongestionControl> {
    return std::make_unique<Dctcp>();
  };
  FleetRunOptions serial;
  const FleetSummary base = run_fleet(spec, dctcp, 42, serial);
  EXPECT_GT(base.total_throughput_bps, 0.0);
  for (std::size_t threads : {1u, 2u, 4u}) {
    FleetRunOptions sharded;
    sharded.mode = FleetMode::kSharded;
    sharded.threads = threads;
    const FleetSummary got = run_fleet(spec, dctcp, 42, sharded);
    EXPECT_TRUE(deterministically_equal(base, got))
        << "DCTCP/ECN incast diverged at threads=" << threads;
  }
}

TEST(FleetIdentity, ShardedMatchesSerialForPolicedParkingLot) {
  // Token-bucket state lives on the hop's owning shard; the active window
  // opening and closing mid-run must tick identically in both engines.
  FleetSpec spec = identity_spec();
  spec.policer_rate_mbps = 12.0;
  spec.policer_burst_bytes = 30 * 1000;
  spec.policer_start = msec(500);
  spec.policer_stop = sec(2);
  auto mixed = [](int flow) -> std::unique_ptr<CongestionControl> {
    if (flow % 2 == 0) return std::make_unique<Bbr>();
    return std::make_unique<Cubic>();
  };
  FleetRunOptions serial;
  const FleetSummary base = run_fleet(spec, mixed, 42, serial);
  EXPECT_GT(base.total_throughput_bps, 0.0);
  for (std::size_t threads : {1u, 2u, 4u}) {
    FleetRunOptions sharded;
    sharded.mode = FleetMode::kSharded;
    sharded.threads = threads;
    const FleetSummary got = run_fleet(spec, mixed, 42, sharded);
    EXPECT_TRUE(deterministically_equal(base, got))
        << "policed parking lot diverged at threads=" << threads;
  }
}

TEST(FleetIdentity, ShardedMatchesSerialForMarkingPolicer) {
  // Marking (not dropping) policer: CE set at ingress instead of a drop, with
  // ECN-capable senders throughout.
  FleetSpec spec = identity_spec();
  spec.policer_rate_mbps = 12.0;
  spec.policer_marks = true;
  auto mixed = [](int flow) -> std::unique_ptr<CongestionControl> {
    if (flow % 2 == 0) return std::make_unique<Dctcp>();
    return std::make_unique<Cubic>();
  };
  FleetRunOptions serial;
  const FleetSummary base = run_fleet(spec, mixed, 42, serial);
  EXPECT_GT(base.total_throughput_bps, 0.0);
  for (std::size_t threads : {1u, 2u, 4u}) {
    FleetRunOptions sharded;
    sharded.mode = FleetMode::kSharded;
    sharded.threads = threads;
    const FleetSummary got = run_fleet(spec, mixed, 42, sharded);
    EXPECT_TRUE(deterministically_equal(base, got))
        << "marking policer diverged at threads=" << threads;
  }
}

// Runs identity_spec() with `codel` on every hop and mixed classic flows, and
// reads back each hop's CoDel drops and marks.
FleetSummary run_codel_hops(const CodelParams& codel, FleetMode mode,
                            std::size_t threads, std::vector<std::int64_t>& drops,
                            std::vector<std::int64_t>& marks) {
  const FleetSpec spec = identity_spec();
  const std::vector<FleetFlowPlan> plans = plan_fleet_flows(spec, 42);
  FleetRunOptions opts;
  opts.mode = mode;
  opts.threads = threads;
  std::vector<LinkConfig> hops = fleet_links(spec);
  for (LinkConfig& hop : hops) hop.codel = codel;
  FleetNetwork net(std::move(hops), fleet_options(spec, 42, opts));
  for (std::size_t i = 0; i < plans.size(); ++i) {
    FleetFlowDef def;
    def.cca = mixed_classic(static_cast<int>(i));
    def.start = plans[i].start;
    def.stop = plans[i].stop;
    def.byte_budget = plans[i].byte_budget;
    def.enter_hop = plans[i].enter_hop;
    def.exit_hop = plans[i].exit_hop;
    net.add_flow(std::move(def));
  }
  net.run();
  drops.clear();
  marks.clear();
  for (int h = 0; h < net.hop_count(); ++h) {
    drops.push_back(net.hop(h).codel_drops());
    marks.push_back(net.hop(h).codel_marks());
  }
  return net.summarize();
}

TEST(FleetIdentity, ShardedMatchesSerialWithCodelHops) {
  // CoDel reaches the fleet through each hop's LinkConfig, like any other
  // link setting. Its control law runs on the hop's owning shard, so every
  // drop and every flow counter must match the serial engine.
  std::vector<std::int64_t> base_drops, base_marks;
  const FleetSummary base =
      run_codel_hops(CodelParams{}, FleetMode::kSerial, 0, base_drops, base_marks);
  EXPECT_GT(base.total_throughput_bps, 0.0);
  for (std::int64_t d : base_drops) EXPECT_GT(d, 0);
  for (std::size_t threads : {1u, 2u, 4u}) {
    std::vector<std::int64_t> drops, marks;
    const FleetSummary got =
        run_codel_hops(CodelParams{}, FleetMode::kSharded, threads, drops, marks);
    EXPECT_TRUE(deterministically_equal(base, got))
        << "CoDel hops diverged at threads=" << threads;
    EXPECT_EQ(drops, base_drops) << "threads=" << threads;
  }
}

TEST(FleetIdentity, CodelMarkModeHopsMarkEctSenders) {
  // A hop in CoDel mark mode is a marking hop, so every sender is ECT and
  // each control-law firing CE-marks instead of dropping, identically under
  // both engines.
  const CodelParams mark{.ecn_mark = true};
  std::vector<std::int64_t> base_drops, base_marks;
  const FleetSummary base =
      run_codel_hops(mark, FleetMode::kSerial, 0, base_drops, base_marks);
  EXPECT_GT(base.total_throughput_bps, 0.0);
  for (std::int64_t m : base_marks) EXPECT_GT(m, 0);
  for (std::int64_t d : base_drops) EXPECT_EQ(d, 0);
  for (std::size_t threads : {1u, 2u, 4u}) {
    std::vector<std::int64_t> drops, marks;
    const FleetSummary got =
        run_codel_hops(mark, FleetMode::kSharded, threads, drops, marks);
    EXPECT_TRUE(deterministically_equal(base, got))
        << "CoDel mark-mode hops diverged at threads=" << threads;
    EXPECT_EQ(marks, base_marks) << "threads=" << threads;
    EXPECT_EQ(drops, base_drops) << "threads=" << threads;
  }
}

TEST(FleetHealthIdentity, ReportIsByteIdenticalSerialVsShardedForClassics) {
  const FleetSpec spec = identity_spec();
  FleetRunOptions serial;
  serial.health = true;
  FleetObsResult base;
  run_fleet(spec, mixed_classic, 42, serial, &base);
  ASSERT_FALSE(base.health.fleet.empty());
  const std::string base_json = health_report_json(base.health);
  for (std::size_t threads : {1u, 2u, 4u}) {
    FleetRunOptions sharded;
    sharded.mode = FleetMode::kSharded;
    sharded.threads = threads;
    sharded.health = true;
    FleetObsResult got;
    run_fleet(spec, mixed_classic, 42, sharded, &got);
    EXPECT_EQ(health_report_json(got.health), base_json)
        << "health report diverged at threads=" << threads;
    EXPECT_EQ(got.shard_events, base.shard_events)
        << "per-shard event attribution diverged at threads=" << threads;
  }
}

TEST(FleetHealthIdentity, ReportIsByteIdenticalSerialVsShardedForLearnedCca) {
  RlCcaConfig cfg = libra_rl_config();
  auto brain = std::make_shared<RlBrain>(make_ppo_config(cfg, 3, {8, 8}),
                                         feature_frame_size(cfg.features));
  auto make_flow = [&](int flow) -> std::unique_ptr<CongestionControl> {
    if (flow % 2 == 0) return std::make_unique<Cubic>();
    RlCcaConfig c = cfg;
    c.training = false;
    c.stochastic_inference = false;
    return std::make_unique<RlCca>(c, brain);
  };
  FleetSpec spec = parking_lot_fleet(/*hops=*/2, /*cross_per_hop=*/2,
                                     /*long_flows=*/2, /*rate_mbps=*/24.0);
  spec.duration = sec(3);
  spec.warmup = sec(1);
  FleetRunOptions serial;
  serial.health = true;
  FleetObsResult base;
  run_fleet(spec, make_flow, 5, serial, &base);
  FleetRunOptions sharded;
  sharded.mode = FleetMode::kSharded;
  sharded.threads = 3;
  sharded.health = true;
  FleetObsResult got;
  run_fleet(spec, make_flow, 5, sharded, &got);
  EXPECT_EQ(health_report_json(got.health), health_report_json(base.health));
}

TEST(FleetEngine, BlackBoxRecorderOverwritesPastTheCap) {
  FleetSpec spec = incast_fleet(8, 96.0);
  spec.duration = sec(2);
  FleetRunOptions run;
  run.record_capacity = 1024;
  FleetObsResult obs;
  run_fleet(
      spec, [] { return std::make_unique<Cubic>(); }, 3, run, &obs);
  // Bounded memory: the ring holds at most the cap, older events were
  // overwritten, and the totals reconcile exactly.
  EXPECT_LE(obs.trace_buffered, 1024u);
  EXPECT_GT(obs.trace_overwritten, 0u);
  EXPECT_EQ(obs.trace_recorded, obs.trace_buffered + obs.trace_overwritten);
}

TEST(FleetEngine, RecordingRequiresSerialMode) {
  FleetSpec spec = incast_fleet(2);
  FleetOptions opts = fleet_options(spec, 1, {});
  opts.mode = FleetMode::kSharded;
  FleetNetwork net(fleet_links(spec), opts);
  EXPECT_THROW(net.enable_recording(1024), std::logic_error);
}

}  // namespace
}  // namespace libra
