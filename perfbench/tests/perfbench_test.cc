// Tests for the benchmark itself: its statistics, flag handling, and the
// claims its measurements rest on (round-at-a-time training equals one call;
// the tracing decorators do not change any simulated result).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/parallel.h"
#include "harness/trainer.h"
#include "learned/libra_rl.h"
#include "obs/profiler.h"
#include "stats.h"
#include "timing.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(Percentile, SingleValueIsEveryQuantile) {
  EXPECT_EQ(percentile({7.5}, 0.0), 7.5);
  EXPECT_EQ(percentile({7.5}, 0.5), 7.5);
  EXPECT_EQ(percentile({7.5}, 0.9), 7.5);
  EXPECT_EQ(percentile({7.5}, 1.0), 7.5);
}

TEST(Percentile, InterpolatesSmallUnsortedSamples) {
  EXPECT_DOUBLE_EQ(percentile({2.0, 1.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(percentile({2.0, 1.0}, 0.9), 1.9);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.9), 2.8);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Percentile, RejectsEmptySampleAndBadQuantile) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, std::nan("")), std::invalid_argument);
}

TEST(PoolUse, CountsIdleWorkersAndTail) {
  // Two workers over [0, 10]: one busy 0-10, the other 0-4 then idle.
  const PoolUse use = pool_use({{0, 10, 0}, {0, 4, 1}}, 0, 10, 2);
  EXPECT_DOUBLE_EQ(use.busy_s, 14);
  EXPECT_DOUBLE_EQ(use.capacity_s, 20);
  EXPECT_DOUBLE_EQ(use.tail_s, 6);
  // A worker that never ran idled for the whole batch.
  EXPECT_DOUBLE_EQ(pool_use({{0, 10, 0}}, 0, 10, 2).tail_s, 10);
}

std::string parse(std::vector<std::string> args, Options& opts) {
  std::vector<const char*> argv = {"perfbench"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return parse_options(static_cast<int>(argv.size()), argv.data(), opts);
}

TEST(Flags, AcceptsTheDriverCommandLine) {
  Options opts;
  ASSERT_EQ(parse({"--workload", "fleet", "--seed", "7", "--seconds", "10", "--trace", "1"}, opts), "");
  EXPECT_EQ(opts.workload, "fleet");
  EXPECT_EQ(opts.seed, 7u);
  EXPECT_EQ(opts.seconds, 10);
  EXPECT_TRUE(opts.trace);
  Options eq;
  ASSERT_EQ(parse({"--workload=paper", "--seed=0", "--seconds=1"}, eq), "");
  EXPECT_FALSE(eq.trace);
}

TEST(Flags, RejectsBadValuesAndUnknownFlags) {
  const std::vector<std::vector<std::string>> bad = {
      {},
      {"--workload", "nosuch", "--seed", "1", "--seconds", "1"},
      {"--workload", "paper", "--seed", "abc", "--seconds", "1"},
      {"--workload", "paper", "--seed", "-1", "--seconds", "1"},
      {"--workload", "paper", "--seed", "99999999999999999999", "--seconds", "1"},
      {"--workload", "paper", "--seed", "1", "--seconds", "0"},
      {"--workload", "paper", "--seed", "1", "--seconds", "1.5"},
      {"--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "2"},
      {"--workload", "paper", "--seed", "1", "--seconds", "1", "--bogus", "1"},
      {"--workload", "paper", "--seed", "1", "--seconds"},
      {"--workload", "paper", "--seconds", "1"},
      {"paper"},
  };
  for (const auto& args : bad) {
    Options opts;
    std::string joined;
    for (const std::string& a : args) joined += a + " ";
    EXPECT_NE(parse(args, opts), "") << "accepted: " << joined;
  }
}

// A brain with a short PPO horizon, so a few short episodes run updates.
std::shared_ptr<libra::RlBrain> small_brain() {
  const libra::RlCcaConfig cfg = libra::libra_rl_config();
  libra::PpoConfig ppo = libra::make_ppo_config(cfg, 42, {16, 16});
  ppo.horizon = 64;
  ppo.minibatch = 32;
  return std::make_shared<libra::RlBrain>(ppo, libra::feature_frame_size(cfg.features));
}

libra::TrainEnvRanges short_episodes() {
  libra::TrainEnvRanges ranges;
  ranges.capacity_hi_mbps = 40;
  ranges.episode_length = libra::sec(2);
  return ranges;
}

TEST(Train, RoundAtATimeMatchesOneCallBitwise) {
  libra::ThreadPool pool(2);
  const libra::BrainBoundFactory factory = [](const std::shared_ptr<libra::RlBrain>& b) {
    return libra::make_libra_rl(b, /*training=*/true);
  };
  constexpr int kRoundSize = 3, kRounds = 3;

  auto one_call = small_brain();
  libra::Trainer t1(short_episodes(), 5);
  const auto curve1 = t1.train_parallel(factory, one_call, kRounds * kRoundSize, pool, kRoundSize);

  auto by_round = small_brain();
  libra::Trainer t2(short_episodes(), 5);
  std::vector<libra::EpisodeStats> curve2;
  for (int r = 0; r < kRounds; ++r) {
    for (const auto& s : t2.train_parallel(factory, by_round, kRoundSize, pool, kRoundSize))
      curve2.push_back(s);
  }

  ASSERT_GT(one_call->agent.update_count(), 0) << "no PPO update ran; the test proves nothing";
  EXPECT_EQ(one_call->agent.update_count(), by_round->agent.update_count());
  EXPECT_EQ(serialize_brain(*one_call), serialize_brain(*by_round));
  ASSERT_EQ(curve1.size(), curve2.size());
  for (std::size_t i = 0; i < curve1.size(); ++i) EXPECT_EQ(curve1[i].reward, curve2[i].reward);
}

/// Runs an untraced and a traced batch (profiler on) of `w`.
std::pair<BatchResult, BatchResult> plain_and_traced(Workload& w) {
  w.setup();
  BatchResult plain = w.run_batch(false);
  libra::Profiler::instance().reset();
  libra::Profiler::instance().enable();
  BatchResult traced = w.run_batch(true);
  libra::Profiler::instance().disable();
  libra::Profiler::instance().reset();
  return {std::move(plain), std::move(traced)};
}

void expect_same_results(const BatchResult& plain, const BatchResult& traced) {
  ASSERT_FALSE(plain.op_digest.empty());
  EXPECT_EQ(plain.op_digest, traced.op_digest);
  for (bool ok : plain.op_ok) EXPECT_TRUE(ok);
  for (bool ok : traced.op_ok) EXPECT_TRUE(ok);
  auto work = [](std::map<std::string, std::uint64_t> c) {
    c.erase("allocs");
    return c;
  };
  EXPECT_EQ(work(plain.counters), work(traced.counters));
}

TEST(Decorators, PaperDigestsUnchangedByTracing) {
  libra::ThreadPool pool(2);
  auto w = make_paper(3, pool, Scale::kSmoke);
  const auto [plain, traced] = plain_and_traced(*w);
  expect_same_results(plain, traced);
  EXPECT_GT(plain.counters.at("libra_cycles"), 0u);
}

TEST(Decorators, TrainDigestsUnchangedByTracing) {
  libra::ThreadPool pool(2);
  auto w = make_train(pool, Scale::kSmoke);
  const auto [plain, traced] = plain_and_traced(*w);
  expect_same_results(plain, traced);
  EXPECT_GT(plain.counters.at("ppo_updates"), 0u);
}

TEST(Decorators, FleetDigestsUnchangedByTracing) {
  auto w = make_fleet(3, Scale::kSmoke);
  const auto [plain, traced] = plain_and_traced(*w);
  expect_same_results(plain, traced);
  // Repeated ops of one batch repeat exactly.
  EXPECT_EQ(plain.op_digest[0], plain.op_digest[1]);
}

TEST(Workloads, RepeatedBatchesRepeatExactly) {
  libra::ThreadPool pool(2);
  auto w = make_train(pool, Scale::kSmoke);
  w->setup();
  const BatchResult a = w->run_batch(false);
  const BatchResult b = w->run_batch(false);
  EXPECT_EQ(a.op_digest, b.op_digest);
  EXPECT_EQ(a.counters.at("ppo_updates"), b.counters.at("ppo_updates"));
}

}  // namespace
}  // namespace perfbench
