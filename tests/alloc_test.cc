// Allocation audits, in one binary because it replaces the global operator
// new with a counting wrapper:
//   - PPO training path: after the first (warm-up) update, Ppo::update must
//     perform zero heap allocations — every workspace is sized at
//     construction; a pooled update allocates only its fork-join's fixed
//     bookkeeping, the same at any horizon;
//   - profiler spans: a disabled PROF_SCOPE allocates nothing (the zero-cost
//     hot-path claim), and an enabled span over an already-seen tree path
//     allocates nothing either (steady-state profiling doesn't perturb the
//     allocator);
//   - telemetry: disabled hooks allocate nothing, and enabled steady-state
//     sampling (including M4 compactions) allocates nothing after the first
//     sample sized the columnar store;
//   - fleet health: disabled hooks allocate nothing, and an enabled
//     accumulate/roll steady state allocates nothing after prepare() sized
//     the timeline;
//   - event queue: steady-state schedule/run cycles over every lane, the
//     heap (schedule_at timers, keyed events, lane overflow) and re-keyed
//     lanes allocate nothing once a warm-up cycle sized every ring, the heap
//     and the slot pools;
//   - sharded fleet engine: a run allocates the same count every time at a
//     given thread count, so what a shard's queue holds never depends on
//     thread timing.
//
// The counting wrapper replaces the over-aligned forms too: cache-line
// aligned types (EventQueue, Link, the fleet's per-shard counters)
// are allocated through operator new(size_t, align_val_t), which an audit
// that only replaced the plain forms would never see.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "classic/bbr.h"
#include "classic/cubic.h"
#include "harness/fleet_scenario.h"
#include "obs/fleet_stats.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "rl/matrix.h"
#include "rl/ppo.h"
#include "rl/simd.h"
#include "sim/event_queue.h"
#include "sim/fleet.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

// Every replaced operator delete frees through this out-of-line call, so
// GCC's -Wmismatched-new-delete, which cannot tell that the replaced
// operator new forms use malloc/aligned_alloc, sees no free() to flag.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

void* operator new(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace libra {
namespace {

void fill_buffer(PpoAgent& agent, Rng& rng) {
  const PpoConfig& cfg = agent.config();
  Vector state(cfg.state_dim);
  while (agent.buffered_transitions() < cfg.horizon) {
    for (double& v : state) v = rng.uniform(-1.0, 1.0);
    double a = agent.act(state);
    agent.give_reward(-std::abs(a - state[0]));
  }
}

TEST(PpoAllocation, UpdateIsAllocationFreeAfterWarmup) {
  PpoConfig cfg;
  cfg.state_dim = 8;
  cfg.hidden = {32, 32};
  cfg.horizon = 256;
  cfg.minibatch = 64;
  cfg.seed = 3;
  PpoAgent agent(cfg);
  Rng rng(4);

  fill_buffer(agent, rng);
  agent.flush_update(0.0);  // warm-up
  ASSERT_EQ(agent.update_count(), 1);

  fill_buffer(agent, rng);
  g_allocations.store(0);
  g_counting.store(true);
  agent.flush_update(0.0);
  g_counting.store(false);

  EXPECT_EQ(agent.update_count(), 2);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "Ppo::update allocated after warm-up; a workspace is being resized "
         "past its reserved capacity";
}

TEST(PpoAllocation, UpdateIsAllocationFreeOnBothKernelPaths) {
  // Same audit as above, once per dispatch decision: the AVX2 kernels write
  // into the same caller-owned buffers as the scalar ones, and the dispatch
  // itself is a relaxed atomic load — neither path may touch the heap.
  const simd::Isa before = simd::active();
  PpoConfig cfg;
  cfg.state_dim = 8;
  cfg.hidden = {32, 32};
  cfg.horizon = 256;
  cfg.minibatch = 64;
  cfg.seed = 3;
  PpoAgent agent(cfg);
  Rng rng(4);
  fill_buffer(agent, rng);
  agent.flush_update(0.0);  // warm-up

  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::avx2_supported()) isas.push_back(simd::Isa::kAvx2);
  for (simd::Isa isa : isas) {
    simd::force(isa);
    fill_buffer(agent, rng);
    g_allocations.store(0);
    g_counting.store(true);
    agent.flush_update(0.0);
    g_counting.store(false);
    EXPECT_EQ(g_allocations.load(), 0u)
        << "Ppo::update allocated on the " << simd::isa_name(isa)
        << " kernel path";
  }
  simd::force(before);
}

// Allocations of one pooled update (after a pooled warm-up) at `horizon`,
// on a fresh two-thread pool so that every call sees the same queue state.
std::size_t pooled_update_allocations(std::size_t horizon) {
  PpoConfig cfg;
  cfg.state_dim = 8;
  cfg.hidden = {32, 32};
  cfg.horizon = horizon;
  cfg.minibatch = 64;
  cfg.seed = 3;
  PpoAgent agent(cfg);
  ThreadPool pool(2);
  Rng rng(4);
  fill_buffer(agent, rng);
  agent.flush_update(0.0, &pool);  // warm-up
  fill_buffer(agent, rng);
  g_allocations.store(0);
  g_counting.store(true);
  agent.flush_update(0.0, &pool);
  g_counting.store(false);
  EXPECT_EQ(agent.update_count(), 2);
  return g_allocations.load();
}

TEST(PpoAllocation, PooledUpdateAllocatesOnlyTheForkJoin) {
  // Running the critic pass on a pool thread costs the fork-join's fixed
  // bookkeeping (the loop state, one submitted task), the same at any
  // horizon: nothing per minibatch or per epoch.
  const std::size_t at_128 = pooled_update_allocations(128);
  const std::size_t at_512 = pooled_update_allocations(512);
  EXPECT_EQ(at_128, at_512);
  EXPECT_LE(at_128, 8u) << "the fork-join grew beyond its fixed bookkeeping";
}

TEST(SimdDispatchAllocation, DispatchAndKernelsAllocateNothing) {
  const simd::Isa before = simd::active();
  Matrix w(16, 16);
  Vector x(16, 0.25), y(16);
  g_allocations.store(0);
  g_counting.store(true);
  // The dispatch decision (force + the relaxed-load predicate) and a kernel
  // run into pre-sized buffers: zero heap traffic end to end.
  simd::force(simd::Isa::kScalar);
  (void)simd::use_avx2();
  w.multiply_into(x, y);
  if (simd::avx2_supported()) {
    simd::force(simd::Isa::kAvx2);
    w.multiply_into(x, y);
  }
  simd::force(before);
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "the kernel dispatch layer must not allocate";
}

TEST(TelemetryAllocation, DisabledHooksAllocateNothing) {
  Telemetry t;
  TelemetryFlowSample fs;
  TelemetryQueueSample qs;
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) {
    t.stage_event(msec(i), 0, i % 4);
    t.sample_flow(0, fs);
    t.sample_queue(0, qs);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "disabled telemetry hooks must be a branch on enabled_, nothing else";
}

TEST(TelemetryAllocation, EnabledSteadyStateSamplingAllocatesNothing) {
  Telemetry t;
  TelemetryConfig cfg;
  cfg.max_buckets = 16;
  t.enable(cfg);
  TelemetryFlowSample fs;
  TelemetryQueueSample qs;
  // Warm-up: first samples create the flow/queue series (columns reserved to
  // max_buckets) and the stage-event buffer was reserved by enable().
  t.sample_flow(0, fs);
  t.sample_queue(0, qs);

  g_allocations.store(0);
  g_counting.store(true);
  // 10k samples into 16 buckets: many pairwise compactions, all in place.
  for (int i = 0; i < 10000; ++i) {
    fs.cwnd_bytes = static_cast<double>(i);
    t.sample_flow(0, fs);
    t.sample_queue(0, qs);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state sampling or compaction touched the heap; a column "
         "outgrew its reserved capacity";
}

TEST(FleetHealthAllocation, DisabledHooksAllocateNothing) {
  FleetHealth h;
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) {
    h.on_ack(0, 1500, msec(10));
    h.on_send(0);
    h.on_loss(0);
    (void)h.needs_roll(0, msec(i));
    h.roll(0, msec(i), 0, 0.0);
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "disabled fleet-health hooks must be a branch on enabled_, nothing "
         "else";
}

TEST(FleetHealthAllocation, EnabledSteadyStateAllocatesNothing) {
  FleetHealth h;
  h.enable({});  // 100 ms windows
  std::vector<FleetFlowMeta> metas(4);
  h.prepare(sec(2), std::move(metas));

  g_allocations.store(0);
  g_counting.store(true);
  // 20 windows x 4 flows x 50 events: accumulate, per-event roll checks,
  // window flushes, and the final inclusive flush — all into storage sized
  // by prepare().
  for (int w = 0; w < 20; ++w) {
    for (int f = 0; f < 4; ++f) {
      for (int i = 0; i < 50; ++i) {
        const SimTime now = static_cast<SimTime>(w) * msec(100) +
                            static_cast<SimTime>(i) * msec(2);
        if (h.needs_roll(f, now)) h.roll(f, now, 10'000, 1e7);
        h.on_send(f);
        h.on_ack(f, 1500, msec(10) + i);
        if (i % 10 == 0) h.on_loss(f);
      }
    }
  }
  for (int f = 0; f < 4; ++f) {
    h.flush_all(f, 10'000, 1e7);
    h.set_flow_outcome(f, -1, msec(10));
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state fleet-health accumulation touched the heap; prepare() "
         "must size every accumulator and row up front";
}

TEST(EventQueueAllocation, SteadyStateScheduleRunAllocatesNothing) {
  EventQueue q;
  long sink = 0;
  std::uint64_t key = std::uint64_t{1} << 48;
  // Five steady delays keep five lanes; the one-off delays re-key the other
  // lanes whenever those have drained and overflow to the heap otherwise.
  constexpr std::array<SimDuration, 5> kSteady = {0, 12, 500, 2000, 10000};
  auto cycle = [&](int round) {
    for (int i = 0; i < 50; ++i) {
      for (SimDuration d : kSteady) q.schedule_in(d, [&sink] { ++sink; });
      q.schedule_at(q.now() + usec(7 * i), [&sink] { ++sink; });
      std::array<long, 6> fat{};
      fat[0] = i;
      q.schedule_in(usec(3000 + 13 * round + i), [&sink, fat] { sink += fat[0]; });
      q.schedule_keyed(q.now() + usec(i), key++,
                       EventQueue::Callback([&sink] { ++sink; }));
      q.run_until(q.now() + usec(5));
    }
    q.run_until(q.now() + msec(50));  // drains every lane and the heap
  };
  cycle(0);  // warm-up: sizes the rings, the heap and both slot pools
  cycle(1);
  const std::uint64_t before = q.processed();
  g_allocations.store(0);
  g_counting.store(true);
  for (int round = 2; round < 6; ++round) cycle(round);
  g_counting.store(false);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.processed() - before, 4u * 50u * 8u);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state scheduling touched the heap; lane rings, the event "
         "heap and the slot pools must be reused once sized";
  EXPECT_GT(sink, 0);
}

TEST(EventQueueAllocation, OverAlignedQueueAllocationIsCounted) {
  // EventQueue is cache-line aligned, so a heap queue goes through the
  // aligned operator new; the audit must count it like any other allocation.
  static_assert(alignof(EventQueue) > __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  g_allocations.store(0);
  g_counting.store(true);
  auto q = std::make_unique<EventQueue>();
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 1u)
      << "the over-aligned EventQueue allocation bypassed the counter";
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q.get()) % alignof(EventQueue), 0u);
}

// Heap allocations of one sharded run() of a 4-hop, 404-flow parking lot
// whose long flows post across every shard boundary, cubic and bbr
// alternating.
std::size_t sharded_fleet_run_allocations(std::size_t threads) {
  FleetSpec spec = parking_lot_fleet(/*hops=*/4, /*cross_per_hop=*/100,
                                     /*long_flows=*/4, /*rate_mbps=*/480.0);
  spec.buffer_bytes = 750'000;
  spec.duration = sec(2);
  spec.warmup = msec(500);
  FleetRunOptions run;
  run.mode = FleetMode::kSharded;
  run.threads = threads;
  FleetNetwork net(fleet_links(spec), fleet_options(spec, 1, run));
  const std::vector<FleetFlowPlan> plans = plan_fleet_flows(spec, 1);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    FleetFlowDef def;
    if (i % 2 == 0) {
      def.cca = std::make_unique<Cubic>();
    } else {
      def.cca = std::make_unique<Bbr>();
    }
    def.start = plans[i].start;
    def.enter_hop = plans[i].enter_hop;
    def.exit_hop = plans[i].exit_hop;
    net.add_flow(std::move(def));
  }
  g_allocations.store(0);
  g_counting.store(true);
  net.run();
  g_counting.store(false);
  return g_allocations.load();
}

TEST(FleetAllocation, ShardedRunAllocatesTheSameEveryTime) {
  // A shard merges exactly the cross-shard posts due at each window start,
  // so its queue's contents at every window start, and every allocation
  // they cause, follow from the topology. An engine that merged every
  // bucket its sources had finished failed this in 4 of 5 runs.
  for (std::size_t threads : {2u, 4u}) {
    const std::size_t first = sharded_fleet_run_allocations(threads);
    EXPECT_GT(first, 0u);
    for (int run = 1; run < 3; ++run)
      EXPECT_EQ(sharded_fleet_run_allocations(threads), first)
          << "threads=" << threads << ", run " << run;
  }
}

TEST(ProfilerAllocation, DisabledSpanAllocatesNothing) {
  Profiler::instance().disable();
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) {
    PROF_SCOPE("alloc_test.disabled");
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0u)
      << "a disabled PROF_SCOPE must be a relaxed load + branch, nothing else";
}

TEST(ProfilerAllocation, EnabledSteadyStateSpanAllocatesNothing) {
  Profiler::instance().disable();
  Profiler::instance().reset();
  Profiler::instance().enable();
  {
    // Warm-up: creates the thread's tree and the nodes for this path.
    PROF_SCOPE("alloc_test.outer");
    PROF_SCOPE("alloc_test.inner");
  }
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) {
    PROF_SCOPE("alloc_test.outer");
    PROF_SCOPE("alloc_test.inner");
  }
  g_counting.store(false);
  Profiler::instance().disable();
  Profiler::instance().reset();
  EXPECT_EQ(g_allocations.load(), 0u)
      << "re-entering an existing tree path must not allocate";
}

}  // namespace
}  // namespace libra
