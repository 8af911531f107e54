// Telemetry pipeline tests: M4 bucket math and streaming compaction, the
// zero-perturbation guarantee (results bitwise identical with telemetry on vs
// off), serial-vs-parallel byte-identical columnar dumps, export round-trips,
// and the Libra stage-event integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "classic/cubic.h"
#include "core/factory.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "learned/libra_rl.h"
#include "obs/json_parse.h"
#include "obs/telemetry.h"
#include "sim/network.h"
#include "trace/rate_trace.h"
#include "util/thread_pool.h"

namespace libra {
namespace {

// --- bucket math ------------------------------------------------------------

TEST(TelemetryBucket, TracksEnvelopeAndEndpoints) {
  TelemetryBucket b;
  for (double v : {3.0, 1.0, 4.0, 1.5}) b.add(v);
  EXPECT_EQ(b.first, 3.0);
  EXPECT_EQ(b.last, 1.5);
  EXPECT_EQ(b.min, 1.0);
  EXPECT_EQ(b.max, 4.0);
  EXPECT_EQ(b.count, 4u);
}

TEST(TelemetryBucket, AbsorbMergesAsIfSamplesWereConcatenated) {
  TelemetryBucket a, b;
  for (double v : {2.0, 5.0}) a.add(v);
  for (double v : {1.0, 3.0}) b.add(v);
  a.absorb(b);
  EXPECT_EQ(a.first, 2.0);  // earlier bucket's first
  EXPECT_EQ(a.last, 3.0);   // later bucket's last
  EXPECT_EQ(a.min, 1.0);
  EXPECT_EQ(a.max, 5.0);
  EXPECT_EQ(a.count, 4u);

  TelemetryBucket empty;
  empty.absorb(a);  // absorbing into an empty bucket copies
  EXPECT_EQ(empty.count, 4u);
  EXPECT_EQ(empty.first, 2.0);
  a.absorb(TelemetryBucket{});  // absorbing an empty bucket is a no-op
  EXPECT_EQ(a.count, 4u);
}

TEST(TelemetrySeries, StaysWithinBucketBudgetAndKeepsEverySample) {
  constexpr std::size_t kMax = 16;
  TelemetrySeries s(1, kMax);
  for (int i = 0; i < 1000; ++i) {
    double v = static_cast<double>(i);
    s.add(&v, 1);
    ASSERT_LE(s.buckets(), kMax);
  }
  EXPECT_EQ(s.samples(), 1000u);
  // spb is a power of two (doubles on every compaction).
  std::uint64_t spb = s.samples_per_bucket();
  EXPECT_EQ(spb & (spb - 1), 0u);
  EXPECT_GE(spb * kMax, 1000u);
  // No sample lost: bucket counts add up.
  std::uint64_t total = 0;
  for (const TelemetryBucket& b : s.column(0)) total += b.count;
  EXPECT_EQ(total, 1000u);
}

TEST(TelemetrySeries, CompactionPreservesTheEnvelope) {
  TelemetrySeries s(1, 8);
  // Sawtooth with one extreme spike: the M4 envelope must survive any number
  // of pairwise merges.
  for (int i = 0; i < 512; ++i) {
    double v = (i == 137) ? 1e9 : ((i % 10) - 5.0);
    s.add(&v, 1);
  }
  double global_min = 1e300, global_max = -1e300;
  for (const TelemetryBucket& b : s.column(0)) {
    global_min = std::min(global_min, b.min);
    global_max = std::max(global_max, b.max);
  }
  EXPECT_EQ(global_max, 1e9);
  EXPECT_EQ(global_min, -5.0);
  // First/last of the whole series survive as the edge buckets' endpoints.
  EXPECT_EQ(s.column(0).front().first, -5.0);  // i=0 -> 0%10-5
  EXPECT_EQ(s.column(0).back().last, (511 % 10) - 5.0);
}

TEST(TelemetrySeries, ColumnsShareOneBucketClock) {
  TelemetrySeries s(2, 4);
  for (int i = 0; i < 100; ++i) {
    double v[2] = {static_cast<double>(i), static_cast<double>(-i)};
    s.add(v, 2);
  }
  ASSERT_EQ(s.columns(), 2u);
  ASSERT_EQ(s.column(0).size(), s.column(1).size());
  for (std::size_t b = 0; b < s.column(0).size(); ++b)
    EXPECT_EQ(s.column(0)[b].count, s.column(1)[b].count);
}

TEST(Telemetry, StageEventsAreCappedNotUnbounded) {
  Telemetry t;
  TelemetryConfig cfg;
  cfg.max_stage_events = 4;
  t.enable(cfg);
  for (int i = 0; i < 10; ++i) t.stage_event(msec(i), 0, i % 4);
  EXPECT_EQ(t.stage_events().size(), 4u);
  EXPECT_EQ(t.stage_events_dropped(), 6u);
}

TEST(Telemetry, DisabledHooksAreNoOps) {
  Telemetry t;
  t.stage_event(msec(1), 0, 1);
  TelemetryFlowSample fs;
  t.sample_flow(0, fs);
  TelemetryQueueSample qs;
  t.sample_queue(0, qs);
  EXPECT_EQ(t.flow_count(), 0);
  EXPECT_EQ(t.queue_count(), 0);
  EXPECT_EQ(t.samples(), 0u);
  EXPECT_TRUE(t.stage_events().empty());
}

// --- queue samples ----------------------------------------------------------

TEST(Telemetry, SojournTracksTheHeadThroughACapacityOutage) {
  // A 12 Mbps link goes dark over [1.0 s, 1.5 s) while a full queue stands
  // still. The head packet's sojourn keeps growing; a drain-time estimate at
  // the current (zero) rate would read 0 for the whole outage.
  LinkConfig cfg;
  cfg.capacity = std::make_shared<PiecewiseTrace>(
      std::vector<PiecewiseTrace::Segment>{
          {0, mbps(12)}, {sec(1), 0}, {msec(1500), mbps(12)}});
  Network net(cfg);
  net.telemetry().enable({msec(1)});
  net.add_flow(std::make_unique<Cubic>());
  net.run_until(sec(2));

  const TelemetrySeries* q = net.telemetry().queue_series(0);
  ASSERT_NE(q, nullptr);
  const SimDuration width = net.telemetry().bucket_width();
  const std::vector<TelemetryBucket>& sojourn = q->column(2);
  double max_ms = 0;
  for (std::size_t b = 0; b < sojourn.size(); ++b) {
    const SimTime t = width * static_cast<SimDuration>(b);
    if (t >= msec(1200) && t < msec(1500))
      max_ms = std::max(max_ms, sojourn[b].max);
  }
  EXPECT_GE(max_ms, 200.0);
}

TEST(Telemetry, QueueDropsCountEveryDiscardOfTheLink) {
  // One CoDel link that loses packets on the wire, at the policer and to
  // CoDel: the sampled drop count is the sum of all of them.
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(24));
  cfg.buffer_bytes = 1'000'000;
  cfg.stochastic_loss = 0.0005;
  cfg.policer_rate = mbps(16);
  cfg.policer_start = sec(8);
  cfg.codel = CodelParams{};
  Network net(cfg);
  net.add_flow(std::make_unique<Cubic>());
  net.run_until(sec(10));

  const Link& link = net.link();
  EXPECT_GT(link.drops_wire(), 0);
  EXPECT_GT(link.drops_policer(), 0);
  EXPECT_GT(link.codel_drops(), 0);
  TelemetryQueueSample qs;
  link.fill_telemetry(qs, net.events().now());
  EXPECT_EQ(qs.drops, static_cast<double>(link.drops_overflow() +
                                          link.drops_wire() +
                                          link.drops_policer() +
                                          link.codel_drops()));
}

// --- zero perturbation ------------------------------------------------------

TEST(TelemetryRun, SummaryIsBitwiseIdenticalWithTelemetryOnVsOff) {
  Scenario s = wired_scenario(24);
  s.duration = sec(6);
  CcaFactory factory = [] { return std::make_unique<Cubic>(); };

  ObsOptions off;
  auto net_off = run_scenario(s, {{factory}, {factory}}, 7, off);
  RunSummary sum_off = summarize(*net_off, sec(1), s.duration);

  ObsOptions on;
  on.telemetry.enabled = true;
  on.telemetry.config.sample_interval = msec(1);
  auto net_on = run_scenario(s, {{factory}, {factory}}, 7, on);
  RunSummary sum_on = summarize(*net_on, sec(1), s.duration);

  EXPECT_GT(net_on->telemetry().samples(), 0u);
  // The sampler only reads state, so every simulated quantity must match to
  // the bit (wall time is host noise, excluded by comparing fields).
  EXPECT_EQ(std::memcmp(&sum_off.link_utilization, &sum_on.link_utilization,
                        sizeof(double)), 0);
  EXPECT_EQ(sum_off.total_throughput_bps, sum_on.total_throughput_bps);
  EXPECT_EQ(sum_off.avg_delay_ms, sum_on.avg_delay_ms);
  ASSERT_EQ(sum_off.flows.size(), sum_on.flows.size());
  for (std::size_t i = 0; i < sum_off.flows.size(); ++i) {
    EXPECT_EQ(sum_off.flows[i].throughput_bps, sum_on.flows[i].throughput_bps);
    EXPECT_EQ(sum_off.flows[i].avg_rtt_ms, sum_on.flows[i].avg_rtt_ms);
    EXPECT_EQ(sum_off.flows[i].loss_rate, sum_on.flows[i].loss_rate);
  }
  // Same number of *simulation* events: telemetry adds its own timer events,
  // so totals differ — but the flows' packet counts must not.
  EXPECT_EQ(net_off->flow(0).sender().packets_sent(),
            net_on->flow(0).sender().packets_sent());
  EXPECT_EQ(net_off->flow(1).sender().packets_lost(),
            net_on->flow(1).sender().packets_lost());
}

// --- determinism: serial vs parallel dumps ----------------------------------

std::vector<std::string> collect_dumps(const std::vector<RunRequest>& base,
                                       ThreadPool& pool) {
  // Each request writes its columnar dump into its own slot via the inspect
  // hook (worker-thread safe: slots are disjoint).
  std::vector<std::string> dumps(base.size());
  std::vector<RunRequest> reqs = base;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].inspect = [&dumps, i](const Network& net) {
      std::ostringstream os;
      net.telemetry().write_jsonl(os);
      dumps[i] = os.str();
    };
  }
  run_many(reqs, pool);
  return dumps;
}

TEST(TelemetryRun, ColumnarDumpsAreByteIdenticalSerialVsParallel) {
  Scenario s = wired_scenario(12);
  s.duration = sec(4);
  CcaFactory factory = [] { return std::make_unique<Cubic>(); };

  std::vector<RunRequest> reqs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RunRequest r;
    r.scenario = s;
    // Stagger durations so requests are genuinely distinct: a wired cubic
    // run is deterministic irrespective of seed, so seed alone would make
    // all four dumps identical and the inequality sanity check vacuous.
    r.scenario.duration = s.duration + sec(static_cast<int>(seed));
    r.flows = {{factory}, {factory}};
    r.seed = seed;
    r.obs.telemetry.enabled = true;
    r.obs.telemetry.config.sample_interval = msec(2);
    reqs.push_back(std::move(r));
  }

  ThreadPool serial(1), parallel(4);
  std::vector<std::string> a = collect_dumps(reqs, serial);
  std::vector<std::string> b = collect_dumps(reqs, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(a[i].empty());
    EXPECT_EQ(a[i], b[i]) << "request " << i;
  }
  // Different durations must produce different series (sanity check that the
  // comparison above is not trivially passing on empty output).
  EXPECT_NE(a[0], a[1]);
}

// --- exports ----------------------------------------------------------------

TEST(TelemetryExport, JsonlRoundTripsThroughTheJsonParser) {
  Scenario s = wired_scenario(12);
  s.duration = sec(3);
  ObsOptions obs;
  obs.telemetry.enabled = true;
  obs.telemetry.config.sample_interval = msec(1);
  auto net = run_scenario(
      s, {{[] { return std::make_unique<Cubic>(); }}}, 3, obs);

  std::ostringstream os;
  net->telemetry().write_jsonl(os);
  std::istringstream in(os.str());
  std::string line;
  int series_lines = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    JsonValue v = json_parse(line);  // throws on malformed output
    ASSERT_TRUE(v.is_object());
    if (v.find("telemetry")) {
      saw_header = true;
      EXPECT_EQ(v.find("interval_us")->number, 1000.0);
      continue;
    }
    if (const JsonValue* col = v.find("col")) {
      ++series_lines;
      const JsonValue* n = v.find("n");
      ASSERT_NE(n, nullptr);
      auto buckets = static_cast<std::size_t>(n->number);
      for (const char* key : {"first", "last", "min", "max", "count"}) {
        const JsonValue* arr = v.find(key);
        ASSERT_NE(arr, nullptr) << key;
        EXPECT_EQ(arr->array.size(), buckets) << col->string;
      }
    }
  }
  EXPECT_TRUE(saw_header);
  // 1 flow x 7 columns + 1 queue x 4 columns.
  EXPECT_EQ(series_lines, 11);
}

// --- Libra integration ------------------------------------------------------

TEST(TelemetryLibra, StageTransitionsLandAsExactEvents) {
  Scenario s = wired_scenario(24);
  s.duration = sec(5);
  auto brain = make_libra_rl_brain(11);
  ObsOptions obs;
  obs.telemetry.enabled = true;
  obs.telemetry.config.sample_interval = msec(1);
  auto net = run_scenario(
      s, {{[brain] { return make_c_libra(brain); }}}, 11,
      obs);

  const Telemetry& t = net->telemetry();
  ASSERT_FALSE(t.stage_events().empty());
  SimTime prev = -1;
  for (const TelemetryStageEvent& ev : t.stage_events()) {
    EXPECT_EQ(ev.flow, 0);
    EXPECT_GE(ev.stage, 0);
    EXPECT_LE(ev.stage, 3);
    EXPECT_GE(ev.t, prev);  // chronological
    prev = ev.t;
  }
  // A full control cycle visits exploration and exploitation at least once.
  bool saw_exploration = false, saw_exploitation = false;
  for (const TelemetryStageEvent& ev : t.stage_events()) {
    saw_exploration |= ev.stage == 0;
    saw_exploitation |= ev.stage == 3;
  }
  EXPECT_TRUE(saw_exploration);
  EXPECT_TRUE(saw_exploitation);

  // The sampled per-flow stage column carries the same signal (values in
  // [0, 3], not the non-Libra sentinel -1).
  const TelemetrySeries* series = t.flow_series(0);
  ASSERT_NE(series, nullptr);
  const auto& stage_col = series->column(6);  // "stage"
  ASSERT_FALSE(stage_col.empty());
  EXPECT_GE(stage_col.back().min, 0.0);
  EXPECT_LE(stage_col.back().max, 3.0);
}

}  // namespace
}  // namespace libra
