#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "rl/adam.h"
#include "rl/matrix.h"
#include "rl/mlp.h"
#include "rl/normalizer.h"
#include "rl/ppo.h"
#include "util/thread_pool.h"

namespace libra {
namespace {

TEST(Matrix, MultiplyVector) {
  Matrix m(2, 3);
  // [[1,2,3],[4,5,6]] * [1,1,1] = [6,15]
  double vals[] = {1, 2, 3, 4, 5, 6};
  std::copy(std::begin(vals), std::end(vals), m.data().begin());
  Vector y = m.multiply({1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 6);
  EXPECT_DOUBLE_EQ(y[1], 15);
}

TEST(Matrix, MultiplyTransposed) {
  Matrix m(2, 3);
  double vals[] = {1, 2, 3, 4, 5, 6};
  std::copy(std::begin(vals), std::end(vals), m.data().begin());
  Vector y = m.multiply_transposed({1, 1});
  EXPECT_DOUBLE_EQ(y[0], 5);
  EXPECT_DOUBLE_EQ(y[1], 7);
  EXPECT_DOUBLE_EQ(y[2], 9);
}

TEST(Matrix, AddOuter) {
  Matrix m(2, 2);
  m.add_outer({1, 2}, {3, 4}, 2.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 6);
  EXPECT_DOUBLE_EQ(m(0, 1), 8);
  EXPECT_DOUBLE_EQ(m(1, 0), 12);
  EXPECT_DOUBLE_EQ(m(1, 1), 16);
}

TEST(Matrix, DimensionChecks) {
  // Matrix shape mismatches are assert-based (hot path); only the cold
  // helpers keep throwing.
  EXPECT_THROW(dot({1.0}, {1.0, 2.0}), std::invalid_argument);
#ifndef NDEBUG
  Matrix m(2, 3);
  EXPECT_DEATH(m.multiply({1, 1}), "dim mismatch");
  EXPECT_DEATH(m.add_outer({1}, {1, 1}), "dim mismatch");
#endif
}

TEST(Mlp, WideForwardBatchMatchesPerSample) {
  // A paper-width (512) net: rows of the batched result must stay bitwise
  // equal to evaluate() per row.
  Rng rng(13);
  Mlp net({24, 512, 512, 1}, rng);
  MlpWorkspace ws;
  ws.configure(net, 16);
  ws.set_batch(16);
  Rng xr(14);
  for (double& v : ws.input().data()) v = xr.uniform(-2.0, 2.0);
  net.forward_batch(ws);
  for (std::size_t r = 0; r < 16; ++r) {
    Vector x(24);
    for (std::size_t c = 0; c < 24; ++c) x[c] = ws.input()(r, c);
    EXPECT_EQ(net.evaluate(x)[0], ws.output()(r, 0)) << "row " << r;
  }
}

TEST(Mlp, ForwardMatchesEvaluate) {
  Rng rng(3);
  Mlp net({4, 8, 2}, rng);
  Vector x{0.1, -0.2, 0.3, 0.4};
  Vector a = net.forward(x);
  Vector b = net.evaluate(x);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a[0], b[0]);
  EXPECT_DOUBLE_EQ(a[1], b[1]);
}

TEST(Mlp, RejectsBadShapes) {
  Rng rng(3);
  EXPECT_THROW(Mlp({4}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({4, 0, 2}, rng), std::invalid_argument);
  Mlp net({2, 2}, rng);
  EXPECT_THROW(net.forward({1.0}), std::invalid_argument);
  EXPECT_THROW(net.backward({1.0}), std::logic_error);  // no cached pass
}

// Finite-difference gradient check: the single most important test of the
// from-scratch backprop.
TEST(Mlp, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  Mlp net({3, 5, 1}, rng);
  Vector x{0.5, -0.3, 0.8};

  net.zero_gradients();
  net.forward(x);
  net.backward({1.0});  // dL/dy = 1 -> gradients of y itself

  const double eps = 1e-6;
  for (std::size_t li = 0; li < net.layers().size(); ++li) {
    Mlp::Layer& layer = net.layers()[li];
    for (std::size_t k = 0; k < layer.weights.size(); k += 3) {
      double saved = layer.weights.data()[k];
      layer.weights.data()[k] = saved + eps;
      double up = net.evaluate(x)[0];
      layer.weights.data()[k] = saved - eps;
      double down = net.evaluate(x)[0];
      layer.weights.data()[k] = saved;
      double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(layer.grad_weights.data()[k], numeric, 1e-5)
          << "layer " << li << " weight " << k;
    }
    for (std::size_t k = 0; k < layer.bias.size(); ++k) {
      double saved = layer.bias[k];
      layer.bias[k] = saved + eps;
      double up = net.evaluate(x)[0];
      layer.bias[k] = saved - eps;
      double down = net.evaluate(x)[0];
      layer.bias[k] = saved;
      EXPECT_NEAR(layer.grad_bias[k], (up - down) / (2 * eps), 1e-5);
    }
  }
}

TEST(Mlp, BackwardReturnsInputGradient) {
  Rng rng(7);
  Mlp net({2, 4, 1}, rng);
  Vector x{0.3, -0.6};
  net.zero_gradients();
  net.forward(x);
  Vector dx = net.backward({1.0});
  ASSERT_EQ(dx.size(), 2u);

  const double eps = 1e-6;
  for (int i = 0; i < 2; ++i) {
    Vector xp = x, xm = x;
    xp[static_cast<std::size_t>(i)] += eps;
    xm[static_cast<std::size_t>(i)] -= eps;
    double numeric = (net.evaluate(xp)[0] - net.evaluate(xm)[0]) / (2 * eps);
    EXPECT_NEAR(dx[static_cast<std::size_t>(i)], numeric, 1e-5);
  }
}

TEST(Mlp, GradientsAccumulateAcrossBackwards) {
  Rng rng(7);
  Mlp net({2, 2, 1}, rng);
  net.zero_gradients();
  net.forward({1.0, 2.0});
  net.backward({1.0});
  double g1 = net.layers()[0].grad_weights.data()[0];
  net.forward({1.0, 2.0});
  net.backward({1.0});
  EXPECT_NEAR(net.layers()[0].grad_weights.data()[0], 2 * g1, 1e-12);
}

// The batched training path must reproduce the per-sample path exactly:
// outputs, accumulated parameter gradients, and input gradients, on random
// networks of several shapes.
TEST(Mlp, BatchForwardBackwardMatchesPerSample) {
  const std::vector<std::vector<std::size_t>> shapes{
      {3, 7, 1}, {5, 8, 4, 2}, {2, 16, 16, 1}};
  for (std::size_t trial = 0; trial < shapes.size(); ++trial) {
    const std::vector<std::size_t>& sizes = shapes[trial];
    Rng rng(11 + trial);
    Mlp batched(sizes, rng);
    Rng other(99);
    Mlp sample(sizes, other);
    sample.copy_parameters_from(batched);

    const std::size_t batch = 5;
    const std::size_t in = sizes.front(), out = sizes.back();
    Rng data(17 + trial);
    std::vector<Vector> xs(batch), gs(batch);
    for (std::size_t r = 0; r < batch; ++r) {
      xs[r].resize(in);
      gs[r].resize(out);
      for (double& v : xs[r]) v = data.uniform(-1.0, 1.0);
      for (double& v : gs[r]) v = data.uniform(-1.0, 1.0);
    }

    MlpWorkspace ws;
    ws.configure(batched, batch);
    ws.set_batch(batch);
    for (std::size_t r = 0; r < batch; ++r)
      std::copy(xs[r].begin(), xs[r].end(),
                ws.input().data().begin() + static_cast<std::ptrdiff_t>(r * in));
    batched.zero_gradients();
    batched.forward_batch(ws);
    for (std::size_t r = 0; r < batch; ++r)
      std::copy(gs[r].begin(), gs[r].end(),
                ws.output_grad().data().begin() +
                    static_cast<std::ptrdiff_t>(r * out));
    batched.backward_batch(ws, /*want_input_grad=*/true);

    sample.zero_gradients();
    for (std::size_t r = 0; r < batch; ++r) {
      Vector y = sample.forward(xs[r]);
      for (std::size_t j = 0; j < out; ++j)
        EXPECT_NEAR(ws.output()(r, j), y[j], 1e-9)
            << "shape " << trial << " row " << r;
      Vector dx = sample.backward(gs[r]);
      for (std::size_t j = 0; j < in; ++j)
        EXPECT_NEAR(ws.input_grad(r, j), dx[j], 1e-9);
    }
    for (std::size_t li = 0; li < batched.layers().size(); ++li) {
      const Mlp::Layer& lb = batched.layers()[li];
      const Mlp::Layer& ls = sample.layers()[li];
      for (std::size_t k = 0; k < lb.grad_weights.size(); ++k)
        EXPECT_NEAR(lb.grad_weights.data()[k], ls.grad_weights.data()[k], 1e-9)
            << "shape " << trial << " layer " << li << " weight " << k;
      for (std::size_t k = 0; k < lb.grad_bias.size(); ++k)
        EXPECT_NEAR(lb.grad_bias[k], ls.grad_bias[k], 1e-9);
    }
  }
}

TEST(Mlp, SaveLoadRoundTrip) {
  Rng rng(9);
  Mlp a({3, 4, 1}, rng);
  Mlp b({3, 4, 1}, rng);  // different init
  std::stringstream buf;
  a.save(buf);
  b.load(buf);
  Vector x{0.2, 0.4, -0.1};
  EXPECT_DOUBLE_EQ(a.evaluate(x)[0], b.evaluate(x)[0]);
}

TEST(Mlp, LoadRejectsShapeMismatch) {
  Rng rng(9);
  Mlp a({3, 4, 1}, rng);
  Mlp b({3, 5, 1}, rng);
  std::stringstream buf;
  a.save(buf);
  EXPECT_THROW(b.load(buf), std::runtime_error);
}

TEST(Adam, MinimizesQuadraticViaMlp) {
  // Train y = w*x toward target 0 from a nonzero start: a pure descent test.
  Rng rng(5);
  Mlp net({1, 1}, rng);  // single linear layer
  AdamOptimizer opt(net, {.learning_rate = 0.05});
  for (int i = 0; i < 500; ++i) {
    double y = net.forward({1.0})[0];
    net.backward({y});  // dL/dy for L = y^2/2
    opt.step();
  }
  EXPECT_NEAR(net.evaluate({1.0})[0], 0.0, 1e-3);
}

TEST(ScalarAdam, DescendsScalar) {
  ScalarAdam opt({.learning_rate = 0.1});
  double x = 5.0;
  for (int i = 0; i < 500; ++i) x -= opt.step(x);  // L = x^2/2
  EXPECT_NEAR(x, 0.0, 1e-3);
}

TEST(Normalizer, ZeroMeanUnitVariance) {
  RunningNormalizer n(1);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) n.update({rng.normal(10.0, 2.0)});
  Vector z = n.normalize({10.0});
  EXPECT_NEAR(z[0], 0.0, 0.1);
  Vector z2 = n.normalize({12.0});
  EXPECT_NEAR(z2[0], 1.0, 0.1);
}

TEST(Normalizer, ClipsExtremes) {
  RunningNormalizer n(1);
  n.update({0.0});
  n.update({1.0});
  Vector z = n.normalize({1e9}, 5.0);
  EXPECT_DOUBLE_EQ(z[0], 5.0);
}

TEST(Normalizer, Validation) {
  EXPECT_THROW(RunningNormalizer(0), std::invalid_argument);
  RunningNormalizer n(2);
  EXPECT_THROW(n.update({1.0}), std::invalid_argument);
}

// Collector normalizers freeze their reference stats while accumulating a
// delta, so concurrent episodes normalize identically; merging the deltas in
// order must equal having streamed every sample through one normalizer.
TEST(Normalizer, DeltaMergeMatchesSerialUpdates) {
  RunningNormalizer serial(2), master(2);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    Vector s{rng.normal(1.0, 2.0), rng.normal(-3.0, 0.5)};
    serial.update(s);
    master.update(s);
  }
  std::vector<Vector> ep1, ep2;
  for (int i = 0; i < 40; ++i) ep1.push_back({rng.normal(), rng.normal(2.0, 3.0)});
  for (int i = 0; i < 25; ++i) ep2.push_back({rng.normal(0.5), rng.normal()});

  for (const Vector& s : ep1) serial.update(s);
  for (const Vector& s : ep2) serial.update(s);

  RunningNormalizer c1 = master, c2 = master;
  c1.begin_delta_collection();
  c2.begin_delta_collection();
  for (const Vector& s : ep1) c1.update(s);
  for (const Vector& s : ep2) c2.update(s);
  master.merge(c1.take_delta());
  master.merge(c2.take_delta());

  EXPECT_EQ(master.count(), serial.count());
  Vector zs = serial.normalize({1.0, 1.0});
  Vector zm = master.normalize({1.0, 1.0});
  EXPECT_NEAR(zm[0], zs[0], 1e-9);
  EXPECT_NEAR(zm[1], zs[1], 1e-9);
}

TEST(Normalizer, DeltaModeNormalizesWithFrozenStats) {
  RunningNormalizer n(1);
  n.update({0.0});
  n.update({2.0});
  Vector before = n.normalize({2.0});
  n.begin_delta_collection();
  n.update({100.0});
  n.update({200.0});
  EXPECT_DOUBLE_EQ(n.normalize({2.0})[0], before[0]);
}

TEST(Normalizer, SaveLoadRoundTrip) {
  RunningNormalizer a(2), b(2);
  a.update({1.0, 2.0});
  a.update({3.0, 4.0});
  std::stringstream buf;
  a.save(buf);
  b.load(buf);
  Vector za = a.normalize({2.0, 3.0});
  Vector zb = b.normalize({2.0, 3.0});
  EXPECT_DOUBLE_EQ(za[0], zb[0]);
  EXPECT_DOUBLE_EQ(za[1], zb[1]);
}

PpoConfig small_ppo(std::size_t dim = 2) {
  PpoConfig cfg;
  cfg.state_dim = dim;
  cfg.hidden = {16, 16};
  cfg.horizon = 128;
  cfg.minibatch = 32;
  cfg.seed = 21;
  return cfg;
}

TEST(Ppo, ActRequiresMatchingDim) {
  PpoAgent agent(small_ppo(2));
  EXPECT_THROW(agent.act({1.0}), std::invalid_argument);
  EXPECT_THROW(agent.act_greedy({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Ppo, RewardWithoutActIsDropped) {
  PpoAgent agent(small_ppo());
  agent.give_reward(1.0);
  EXPECT_EQ(agent.buffered_transitions(), 0u);
}

TEST(Ppo, BuffersTransitions) {
  PpoAgent agent(small_ppo());
  agent.act({0.1, 0.2});
  agent.give_reward(0.5);
  EXPECT_EQ(agent.buffered_transitions(), 1u);
}

TEST(Ppo, UpdatesAfterHorizon) {
  PpoAgent collector(small_ppo());
  for (std::size_t i = 0; i <= collector.config().horizon; ++i) {
    collector.act({0.1, 0.2});
    collector.give_reward(0.0);
  }
  PpoAgent agent(small_ppo());
  // horizon + 1 transitions: the last one finds the buffer full and runs the
  // update first.
  agent.ingest(collector.take_transitions());
  EXPECT_EQ(agent.update_count(), 1);
  EXPECT_LT(agent.buffered_transitions(), agent.config().horizon);
  agent.flush_update(0.0);
  EXPECT_EQ(agent.update_count(), 2);
}

// The core learning test: a 1-D target-chasing task. State = target value;
// reward = -|action - target|. Rounds of rollouts are collected on policy
// snapshots and ingested into the master, as the trainer does; the policy
// must learn action ~= target.
TEST(Ppo, CollectIngestLearnsTarget) {
  PpoConfig cfg = small_ppo(1);
  cfg.horizon = 256;
  cfg.epochs = 8;
  cfg.actor_lr = 3e-3;
  cfg.critic_lr = 3e-3;
  PpoAgent master(cfg);
  Rng rng(2);
  std::uint64_t collector_seed = 1000;
  for (int round = 0; round < 80; ++round) {
    PpoConfig ccfg = cfg;
    ccfg.seed = collector_seed++;
    PpoAgent collector(ccfg);
    collector.copy_parameters_from(master);
    for (int step = 0; step < 250; ++step) {
      double target = rng.chance(0.5) ? 1.0 : -1.0;
      double a = collector.act({target});
      collector.give_reward(-std::abs(a - target));
    }
    master.ingest(collector.take_transitions(/*mark_final_done=*/true));
  }
  EXPECT_GT(master.update_count(), 0);
  EXPECT_NEAR(master.act_greedy({1.0}), 1.0, 0.35);
  EXPECT_NEAR(master.act_greedy({-1.0}), -1.0, 0.35);
}

// A pool runs each update's actor and critic passes on two threads. They
// share no mutable state and each does the serial pass's work in the same
// order, so the weights, the log-std and every update's statistics must be
// bitwise those of the serial update, at any pool width.
TEST(Ppo, PooledUpdateMatchesSerialUpdate) {
  PpoConfig cfg = small_ppo(3);
  cfg.horizon = 64;
  cfg.minibatch = 24;  // 24 + 24 + 16: a short last minibatch

  PpoConfig collect = cfg;
  collect.seed = 99;
  PpoAgent collector(collect);
  Rng rng(5);
  for (int i = 0; i < 4 * 64 + 10; ++i) {
    const Vector state = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                          rng.uniform(-1.0, 1.0)};
    const double a = collector.act(state);
    collector.give_reward(-std::abs(a - state[0]), /*done=*/i % 50 == 49);
  }
  const std::vector<PpoTransition> rollout = collector.take_transitions();

  struct Run {
    int updates = 0;
    double stddev = 0;
    std::string weights;
    std::vector<PpoUpdateStats> stats;
  };
  auto train = [&](ThreadPool* pool) {
    Run run;
    PpoAgent agent(cfg);
    agent.update_observer = [&run](const PpoUpdateStats& s) {
      run.stats.push_back(s);
    };
    agent.ingest(rollout, pool);      // four full-horizon updates
    agent.flush_update(0.25, pool);   // and one over the 10-row remainder
    run.updates = agent.update_count();
    run.stddev = agent.exploration_stddev();
    std::ostringstream out;
    agent.save(out);  // log-std, actor and critic at full precision
    run.weights = out.str();
    return run;
  };

  const Run serial = train(nullptr);
  ASSERT_EQ(serial.updates, 5);
  ASSERT_EQ(serial.stats.size(), 5u);
  ThreadPool two(2), one(1);
  for (ThreadPool* pool : {&two, &one}) {
    const Run pooled = train(pool);
    const std::size_t threads = pool->thread_count();
    EXPECT_EQ(pooled.updates, serial.updates) << threads;
    EXPECT_EQ(pooled.stddev, serial.stddev) << threads;
    EXPECT_TRUE(pooled.weights == serial.weights) << threads << " threads";
    ASSERT_EQ(pooled.stats.size(), serial.stats.size()) << threads;
    for (std::size_t i = 0; i < serial.stats.size(); ++i) {
      const PpoUpdateStats& p = pooled.stats[i];
      const PpoUpdateStats& s = serial.stats[i];
      EXPECT_EQ(p.update, s.update) << threads << " " << i;
      EXPECT_EQ(p.transitions, s.transitions) << threads << " " << i;
      EXPECT_EQ(p.policy_loss, s.policy_loss) << threads << " " << i;
      EXPECT_EQ(p.value_loss, s.value_loss) << threads << " " << i;
      EXPECT_EQ(p.clip_fraction, s.clip_fraction) << threads << " " << i;
      EXPECT_EQ(p.approx_kl, s.approx_kl) << threads << " " << i;
      EXPECT_EQ(p.entropy, s.entropy) << threads << " " << i;
    }
  }
}

TEST(Ppo, ActNeverUpdates) {
  // Acting only records: however full the rollout gets, the policy changes
  // only through ingest() or flush_update().
  PpoConfig cfg;
  cfg.state_dim = 2;
  PpoAgent agent(cfg);
  for (std::size_t i = 0; i < 3 * cfg.horizon; ++i) {
    agent.act({0.1, 0.2});
    agent.give_reward(0.0);
  }
  EXPECT_EQ(agent.update_count(), 0);
  EXPECT_EQ(agent.buffered_transitions(), 3 * cfg.horizon);
}

TEST(Ppo, TakeTransitionsMarksEpisodeBoundary) {
  PpoAgent agent(small_ppo());
  agent.act({0.1, 0.2});
  agent.give_reward(0.5);
  agent.act({0.3, 0.4});
  agent.give_reward(0.25);
  agent.act({0.5, 0.6});  // left half-open: must be dropped
  auto batch = agent.take_transitions(/*mark_final_done=*/true);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch.front().done);
  EXPECT_TRUE(batch.back().done);
  EXPECT_EQ(agent.buffered_transitions(), 0u);
}

TEST(Ppo, SaveLoadRoundTrip) {
  PpoAgent a(small_ppo());
  PpoAgent b(small_ppo());
  // Perturb a's policy via some updates so the two differ.
  for (int i = 0; i < 300; ++i) {
    double act = a.act({0.5, -0.5});
    a.give_reward(-act * act);
  }
  a.ingest(a.take_transitions());
  a.flush_update(0.0);
  ASSERT_EQ(a.update_count(), 3);
  std::stringstream buf;
  a.save(buf);
  b.load(buf);
  EXPECT_DOUBLE_EQ(a.act_greedy({0.3, 0.3}), b.act_greedy({0.3, 0.3}));
  EXPECT_DOUBLE_EQ(a.exploration_stddev(), b.exploration_stddev());
}

TEST(Ppo, MemoryBytesScalesWithWidth) {
  PpoConfig small = small_ppo();
  PpoConfig big = small_ppo();
  big.hidden = {128, 128};
  EXPECT_GT(PpoAgent(big).memory_bytes(), PpoAgent(small).memory_bytes());
}

}  // namespace
}  // namespace libra
