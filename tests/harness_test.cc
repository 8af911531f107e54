#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "classic/cubic.h"
#include "classic/newreno.h"
#include "harness/metered.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/trainer.h"
#include "harness/zoo.h"
#include "learned/libra_rl.h"
#include "util/thread_pool.h"

namespace libra {
namespace {

TEST(Scenario, WiredBuildsConstantTrace) {
  Scenario s = wired_scenario(48);
  auto t = s.make_trace(1);
  EXPECT_DOUBLE_EQ(t->rate_at(sec(5)), mbps(48));
  EXPECT_DOUBLE_EQ(s.nominal_rate, mbps(48));
  LinkConfig cfg = s.link_config(1);
  EXPECT_EQ(cfg.propagation_delay, msec(15));
}

TEST(Scenario, LteTraceVariesWithSeed) {
  Scenario s = lte_scenario(LteProfile::kDriving, "lte-driving");
  auto a = s.make_trace(1);
  auto b = s.make_trace(2);
  bool differ = false;
  for (SimTime at = 0; at < sec(20); at += msec(500))
    differ |= a->rate_at(at) != b->rate_at(at);
  EXPECT_TRUE(differ);
}

TEST(Scenario, StepScenarioMatchesFig2a) {
  Scenario s = step_scenario();
  EXPECT_EQ(s.link.propagation_delay, msec(40));
  auto t = s.make_trace(1);
  // Capacity changes at the 10 s boundary.
  EXPECT_NE(t->rate_at(sec(5)), t->rate_at(sec(15)));
  // Includes the 5 Mbps level that breaks Orca's training range.
  bool has_5mbps = false;
  for (int k = 0; k < 5; ++k)
    has_5mbps |= t->rate_at(sec(10 * k + 5)) == mbps(5);
  EXPECT_TRUE(has_5mbps);
}

TEST(Scenario, CanonicalSetsHaveExpectedSizes) {
  EXPECT_EQ(fig1_scenarios().size(), 6u);
  EXPECT_EQ(wired_set().size(), 4u);
  EXPECT_EQ(cellular_set().size(), 4u);
}

TEST(Scenario, WanProfilesDiffer) {
  Scenario inter = wan_inter_continental();
  Scenario intra = wan_intra_continental();
  EXPECT_GT(inter.link.propagation_delay, intra.link.propagation_delay);
  EXPECT_GT(inter.link.stochastic_loss, intra.link.stochastic_loss);
}

TEST(Scenario, ExtensionProfiles) {
  EXPECT_GE(satellite_scenario().link.propagation_delay, msec(250));
  EXPECT_GT(satellite_scenario().link.stochastic_loss, 0.01);
  EXPECT_EQ(fiveg_scenario().name, "5g");
}

TEST(Runner, SingleFlowSummary) {
  Scenario s = wired_scenario(24);
  s.duration = sec(8);
  RunSummary sum = run_single(s, [] { return std::make_unique<NewReno>(); }, 1);
  EXPECT_GT(sum.link_utilization, 0.8);
  EXPECT_GT(sum.total_throughput_bps, mbps(18));
  ASSERT_EQ(sum.flows.size(), 1u);
  EXPECT_GT(sum.flows[0].avg_rtt_ms, 29.0);
}

TEST(Runner, RejectsEmptyFlows) {
  Scenario s = wired_scenario(24);
  EXPECT_THROW(run_scenario(s, {}, 1), std::invalid_argument);
}

TEST(Runner, MultiFlowSummaries) {
  Scenario s = wired_scenario(24);
  s.duration = sec(10);
  auto net = run_scenario(
      s,
      {{[] { return std::make_unique<NewReno>(); }, 0},
       {[] { return std::make_unique<NewReno>(); }, sec(2)}},
      1);
  RunSummary sum = summarize(*net, sec(4), sec(10));
  ASSERT_EQ(sum.flows.size(), 2u);
  EXPECT_GT(sum.flows[0].throughput_bps, 0);
  EXPECT_GT(sum.flows[1].throughput_bps, 0);
}

// The exact values below were recorded with the per-ACK time series that the
// flows' 10 ms window rows replaced. Throughput, loss rate, utilization and
// rate bins are integer sums of the same ACKs and losses, so they must match
// bit for bit; a mean RTT is now one exact integer sum divided once, so it may
// differ by rounding only.
void expect_summary(const RunSummary& got, double util, double delay,
                    const std::vector<std::array<double, 3>>& flows) {
  EXPECT_EQ(got.link_utilization, util);
  EXPECT_NEAR(got.avg_delay_ms, delay, delay * 1e-9);
  ASSERT_EQ(got.flows.size(), flows.size());
  double total = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got.flows[i].throughput_bps, flows[i][0]);
    EXPECT_NEAR(got.flows[i].avg_rtt_ms, flows[i][1], flows[i][1] * 1e-9);
    EXPECT_EQ(got.flows[i].loss_rate, flows[i][2]);
    total += flows[i][0];
  }
  EXPECT_EQ(got.total_throughput_bps, total);
}

TEST(Runner, SummaryMatchesParentSeries) {
  {
    Scenario s = wired_scenario(24);
    s.duration = sec(10);
    auto net = run_scenario(s, {{[] { return std::make_unique<Cubic>(); }}}, 1);
    SCOPED_TRACE("one flow");
    expect_summary(summarize(*net, sec(2), sec(10)), 1.0, 68.572429687500104,
                   {{24000000.0, 68.572429687500104, 0.00024993751562109475}});
    // A window that ends inside the run, so a row too many shows too.
    expect_summary(summarize(*net, 0, sec(5)), 0.98529999999999995, 68.594100376667086,
                   {{23575200.0, 68.594100376667086, 0.02336448598130841}});
  }
  // Integration.ThreeFlowConvergenceAnalysis's run: flows enter 5 s apart.
  Scenario s = wired_scenario(48, msec(30), 300 * 1000);
  s.duration = sec(40);
  auto net = run_scenario(s,
                          {{[] { return std::make_unique<Cubic>(); }, 0},
                           {[] { return std::make_unique<Cubic>(); }, sec(5)},
                           {[] { return std::make_unique<Cubic>(); }, sec(10)}},
                          7);
  SCOPED_TRACE("three flows");
  expect_summary(summarize(*net, sec(2), sec(40)), 1.0, 71.276703361841726,
                 {{28463684.210526317, 71.017476241193819, 0.00016638935108153079},
                  {8946315.7894736845, 71.550854429931817, 0.00084644141920011285},
                  {10590000.0, 71.741851319516044, 0.00041730006855643983}});
  const std::vector<double> want_bins = {
      1656000.0, 2640000.0, 3000000.0, 3312000.0, 4344000.0, 5640000.0, 6144000.0,
      6576000.0, 6960000.0, 7320000.0, 7656000.0, 7872000.0, 8448000.0, 9504000.0,
      11280000.0, 12096000.0, 13776000.0, 14304000.0, 15000000.0, 14976000.0,
      15096000.0, 15096000.0, 14832000.0, 14376000.0, 14808000.0, 16464000.0,
      16056000.0, 15408000.0, 15000000.0, 15624000.0, 15864000.0, 15936000.0,
      15912000.0, 15048000.0, 14712000.0, 14352000.0, 14256000.0, 14328000.0,
      14400000.0, 14640000.0, 15240000.0, 16776000.0, 17304000.0, 18840000.0,
      18960000.0, 19272000.0, 19368000.0, 19392000.0, 19296000.0, 19464000.0,
      19008000.0, 16296000.0, 15744000.0, 15264000.0, 15048000.0, 14880000.0,
      15024000.0, 15048000.0, 15048000.0, 14856000.0};
  EXPECT_EQ(net->flow(2).rate_bins(msec(500), sec(10), sec(40)), want_bins);
}

TEST(Runner, RejectsDurationOffTheGrid) {
  Scenario s = wired_scenario(24);
  s.duration = msec(2005);
  EXPECT_THROW(run_scenario(s, {{[] { return std::make_unique<NewReno>(); }}}, 1),
               std::invalid_argument);
}

TEST(Runner, CodelScenarioMatchesHandBuiltNetwork) {
  // A scenario's queue discipline rides in its LinkConfig: run_scenario over
  // a CoDel scenario must be the very run a Network over that LinkConfig,
  // built by hand, produces.
  Scenario s = wired_scenario(48, msec(30), 600'000);
  s.duration = sec(10);
  s.link.codel = CodelParams{};
  auto ran = run_scenario(s, {{[] { return std::make_unique<Cubic>(); }}}, 1);

  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(48));
  cfg.buffer_bytes = 600'000;
  cfg.propagation_delay = msec(15);
  cfg.seed = 1 ^ 0xABCDEF;
  cfg.codel = CodelParams{};
  Network net(cfg);
  net.add_flow(std::make_unique<Cubic>());
  net.run_until(s.duration);

  EXPECT_GT(net.link().codel_drops(), 0);
  EXPECT_EQ(ran->link().codel_drops(), net.link().codel_drops());
  EXPECT_EQ(ran->link().drops_overflow(), net.link().drops_overflow());
  EXPECT_EQ(ran->events().processed(), net.events().processed());
  const Sender& a = ran->flow(0).sender();
  const Sender& b = net.flow(0).sender();
  EXPECT_EQ(a.packets_acked(), b.packets_acked());
  EXPECT_EQ(a.packets_lost(), b.packets_lost());
  EXPECT_EQ(a.rtt_sum(), b.rtt_sum());
  const RunSummary want = summarize(net, sec(2), s.duration);
  const RunSummary got = summarize(*ran, sec(2), s.duration);
  EXPECT_EQ(got.link_utilization, want.link_utilization);
  EXPECT_EQ(got.avg_delay_ms, want.avg_delay_ms);
  EXPECT_EQ(got.total_throughput_bps, want.total_throughput_bps);
  EXPECT_EQ(got.flows[0].loss_rate, want.flows[0].loss_rate);
}

// Five short episodes at round size 2: two full rounds and a partial one.
std::vector<EpisodeStats> train_five_episodes(std::uint64_t brain_seed,
                                              std::uint64_t trainer_seed) {
  auto brain = make_libra_rl_brain(brain_seed);
  TrainEnvRanges ranges;
  ranges.episode_length = sec(2);
  Trainer trainer(ranges, trainer_seed);
  ThreadPool pool(2);
  return trainer.train_parallel(
      [](const std::shared_ptr<RlBrain>& b) { return make_libra_rl(b, true); },
      brain, 5, pool, /*round_size=*/2);
}

TEST(Trainer, EpisodeProducesMetrics) {
  for (const EpisodeStats& ep : train_five_episodes(3, 5)) {
    EXPECT_GT(ep.steps, 0);
    EXPECT_GT(ep.throughput_bps, 0);
  }
}

TEST(Trainer, RewardExtractorHandlesNonRl) {
  NewReno cc;
  EXPECT_FALSE(episode_reward_of(cc).has_value());
}

TEST(Trainer, CurveHasRequestedLength) {
  EXPECT_EQ(train_five_episodes(4, 6).size(), 5u);
}

TEST(Zoo, AllNamesConstructible) {
  // Classic + online-learning CCAs need no brain; construct them all.
  ZooConfig cfg;
  cfg.brain_dir = "";  // no cache in tests
  cfg.train_episodes = 1;
  CcaZoo zoo(cfg);
  for (const auto& name : CcaZoo::all_names()) {
    auto cca = zoo.factory(name)();
    ASSERT_NE(cca, nullptr) << name;
    EXPECT_FALSE(cca->name().empty());
  }
}

TEST(Zoo, UnknownNameThrows) {
  CcaZoo zoo;
  EXPECT_THROW(zoo.factory("nope"), std::out_of_range);
  EXPECT_THROW(zoo.brain("nope"), std::out_of_range);
}

TEST(Zoo, BrainsAreCachedPerFamily) {
  ZooConfig cfg;
  cfg.brain_dir = "";
  cfg.train_episodes = 1;
  CcaZoo zoo(cfg);
  EXPECT_EQ(zoo.brain("libra-rl").get(), zoo.brain("libra-rl").get());
}

TEST(Metered, AttributesTime) {
  auto meter = std::make_shared<OverheadMeter>();
  MeteredCca metered(std::make_unique<NewReno>(), meter);
  metered.on_ack({msec(10), 0, 0, msec(10), 1500, 0, 0, msec(10)});
  metered.on_tick(msec(20));
  EXPECT_EQ(meter->invocations(), 2);
  EXPECT_EQ(metered.name(), "newreno");
  EXPECT_GT(metered.cwnd_bytes(), 0);
}

TEST(Report, FormattersAndTable) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.876), "87.6%");
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  std::ostringstream out;
  t.print(out);
  std::string s = out.str();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
}

}  // namespace
}  // namespace libra
