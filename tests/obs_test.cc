// Observability subsystem tests: histogram bucket math, metrics aggregation
// under concurrency, flight-recorder ring/sink semantics, trace determinism
// across serial and parallel execution.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "classic/cubic.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/sink.h"

namespace libra {
namespace {

// --- Histogram bucket math ---------------------------------------------------

TEST(Histogram, BoundaryValueLandsInBucketWithInclusiveUpperBound) {
  Histogram h({1.0, 2.0, 3.0});
  h.add(1.0);  // x <= bound: first bucket
  h.add(2.0);
  h.add(2.5);
  ASSERT_EQ(h.bucket_counts().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.bucket_counts()[0], 1);
  EXPECT_EQ(h.bucket_counts()[1], 1);
  EXPECT_EQ(h.bucket_counts()[2], 1);
  EXPECT_EQ(h.bucket_counts()[3], 0);
}

TEST(Histogram, BelowFirstBoundAndOverflowBothCounted) {
  Histogram h({10.0, 20.0});
  h.add(-5.0);   // below the first bound: first bucket
  h.add(1000.0); // above the last bound: overflow bucket
  EXPECT_EQ(h.bucket_counts()[0], 1);
  EXPECT_EQ(h.bucket_counts()[2], 1);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.min(), -5.0);
  EXPECT_EQ(h.max(), 1000.0);
}

TEST(Histogram, EmptyAndSingleValuePercentiles) {
  Histogram h = Histogram::linear(0, 100, 10);
  EXPECT_EQ(h.percentile(50), 0.0);  // empty: defined as 0
  h.add(42.0);
  // One sample: every percentile collapses to it (clamped to [min, max]).
  EXPECT_EQ(h.percentile(0), 42.0);
  EXPECT_EQ(h.percentile(50), 42.0);
  EXPECT_EQ(h.percentile(100), 42.0);
}

TEST(Histogram, PercentileInterpolatesAndStaysInObservedRange) {
  Histogram h = Histogram::linear(0, 100, 10);
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(50), 50.0, 10.0);
  EXPECT_NEAR(h.percentile(90), 90.0, 10.0);
  EXPECT_GE(h.percentile(0), h.min());
  EXPECT_LE(h.percentile(100), h.max());
  // Percentiles are monotone in p.
  EXPECT_LE(h.percentile(50), h.percentile(90));
  EXPECT_LE(h.percentile(90), h.percentile(99));
}

TEST(Histogram, LinearAndExponentialLadders) {
  Histogram lin = Histogram::linear(0, 10, 5);
  ASSERT_EQ(lin.bounds().size(), 5u);
  EXPECT_DOUBLE_EQ(lin.bounds()[0], 2.0);
  EXPECT_DOUBLE_EQ(lin.bounds()[4], 10.0);

  Histogram exp = Histogram::exponential(1.0, 2.0, 4);
  ASSERT_EQ(exp.bounds().size(), 4u);
  EXPECT_DOUBLE_EQ(exp.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(exp.bounds()[3], 8.0);

  EXPECT_THROW(Histogram::linear(5, 5, 4), std::invalid_argument);
  EXPECT_THROW(Histogram::exponential(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram(std::vector<double>{}), std::invalid_argument);
}

TEST(Histogram, UnderflowAndOverflowAreReportedExplicitly) {
  Histogram h = Histogram::linear(10, 20, 5);  // linear declares lo as the edge
  EXPECT_EQ(h.lower_edge(), 10.0);
  h.add(5.0);    // below the declared edge: bucket 0 AND the underflow count
  h.add(15.0);   // in range
  h.add(100.0);  // past the last bound
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.count(), 3);  // every sample still counted in the buckets
  EXPECT_EQ(h.bucket_counts().front(), 1);

  // Explicit-bounds histograms have no declared lower edge: nothing is
  // "below range" by default.
  Histogram open({10.0, 20.0});
  open.add(-1e9);
  EXPECT_EQ(open.underflow(), 0);
  EXPECT_EQ(open.overflow(), 0);

  // Merge adds the flow counters alongside the buckets.
  Histogram h2 = Histogram::linear(10, 20, 5);
  h2.add(1.0);
  h2.add(99.0);
  h.merge(h2);
  EXPECT_EQ(h.underflow(), 2);
  EXPECT_EQ(h.overflow(), 2);
}

TEST(Histogram, ToJsonReportsOverflowAndUnderflow) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat_ms", Histogram::linear(1, 10, 3));
  h.add(0.5);
  h.add(5.0);
  h.add(50.0);
  std::string json = reg.to_json();
  EXPECT_NE(json.find("\"overflow\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"underflow\":1"), std::string::npos) << json;
}

TEST(Histogram, MergeAddsBucketwiseAndRejectsMismatchedBounds) {
  Histogram a = Histogram::linear(0, 10, 5);
  Histogram b = Histogram::linear(0, 10, 5);
  a.add(1.0);
  b.add(9.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 13.0);

  Histogram c = Histogram::linear(0, 20, 5);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Gauge, TracksMinMaxLastCount) {
  Gauge g;
  EXPECT_TRUE(g.empty());
  g.set(5.0);
  g.set(-1.0);
  g.set(3.0);
  EXPECT_EQ(g.min(), -1.0);
  EXPECT_EQ(g.max(), 5.0);
  EXPECT_EQ(g.last(), 3.0);
  EXPECT_EQ(g.count(), 3);
}

// --- MetricsRegistry aggregation --------------------------------------------

TEST(MetricsRegistry, ConcurrentMergesAggregateExactly) {
  MetricsRegistry total;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&total, t] {
      for (int i = 0; i < kPerThread; ++i) {
        MetricsRegistry local;
        local.counter("n").inc(3);
        local.gauge("g").set(static_cast<double>(t));
        local.histogram("h", Histogram::linear(0, 8, 8))
            .add(static_cast<double>(t));
        total.merge(local);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(total.counter("n").value(), 3 * kThreads * kPerThread);
  EXPECT_EQ(total.gauge("g").min(), 0.0);
  EXPECT_EQ(total.gauge("g").max(), kThreads - 1.0);
  Histogram& h = total.histogram("h", Histogram::linear(0, 8, 8));
  EXPECT_EQ(h.count(), kThreads * kPerThread);
}

TEST(MetricsRegistry, ToJsonContainsAllSections) {
  MetricsRegistry reg;
  reg.counter("hits").inc(7);
  reg.gauge("depth").set(2.5);
  reg.histogram("lat", Histogram::linear(0, 10, 2)).add(4.0);
  std::string json = reg.to_json();
  EXPECT_NE(json.find("\"hits\":7"), std::string::npos);
  EXPECT_NE(json.find("\"depth\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// --- FlightRecorder ring / sink semantics ------------------------------------

TEST(FlightRecorder, DisabledRecorderAcceptsNothing) {
  FlightRecorder rec;
  rec.ack(sec(1), 0, 1, msec(30), 1500, 1e6, 3000);
  rec.drop(sec(1), 0, 2, 1500, 0, DropReason::kOverflow);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorder, DisabledRecordPathIsCheap) {
  // Coarse guard against accidental work on the disabled path: tens of
  // millions of calls must stay far under a second (the hot path is a single
  // predictable branch). Bound is very generous to survive sanitizers.
  FlightRecorder rec;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10'000'000; ++i) {
    rec.ack(sec(1), 0, static_cast<std::uint64_t>(i), msec(30), 1500, 1e6, 0);
  }
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_LT(ms, 2000.0);
}

TEST(FlightRecorder, BlackBoxRingKeepsMostRecentEvents) {
  FlightRecorder rec;
  rec.enable(4);
  for (int i = 0; i < 10; ++i) {
    rec.send(msec(i), 0, static_cast<std::uint64_t>(i), 1500, 0);
  }
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.overwritten(), 6u);
  EXPECT_EQ(rec.buffered(), 4u);
  std::vector<TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);  // oldest-first, most recent four
  }
}

TEST(FlightRecorder, SinkStreamsFullRingWithoutLoss) {
  auto out = std::make_shared<std::ostringstream>();
  FlightRecorder rec;
  rec.enable(4);  // tiny ring: forces several mid-run flushes
  rec.set_sink(std::make_shared<StreamLineSink>(*out));
  for (int i = 0; i < 10; ++i) {
    rec.send(msec(i), 0, static_cast<std::uint64_t>(i), 1500, 0);
  }
  rec.flush();
  EXPECT_EQ(rec.overwritten(), 0u);
  std::istringstream in(out->str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"ev\":\"send\""), std::string::npos) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 10);
}

TEST(FlightRecorder, JsonlFieldsMatchSchema) {
  FlightRecorder rec;
  rec.enable(16);
  rec.ack(msec(1500), 2, 42, msec(30), 1448, 2.5e6, 4344);
  rec.drop(sec(2), -1, 7, 1500, 30000, DropReason::kCodel);
  std::vector<TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);

  std::string line;
  FlightRecorder::append_jsonl(events[0], line);
  EXPECT_NE(line.find("\"ev\":\"ack\""), std::string::npos);
  EXPECT_NE(line.find("\"t\":1.5"), std::string::npos);
  EXPECT_NE(line.find("\"flow\":2"), std::string::npos);
  EXPECT_NE(line.find("\"seq\":42"), std::string::npos);
  EXPECT_NE(line.find("\"rtt_ms\":30"), std::string::npos);

  line.clear();
  FlightRecorder::append_jsonl(events[1], line);
  EXPECT_NE(line.find("\"ev\":\"drop\""), std::string::npos);
  EXPECT_EQ(line.find("\"flow\""), std::string::npos);  // link-level: no flow key
  EXPECT_NE(line.find("\"reason\":\"codel\""), std::string::npos);
}

// --- End-to-end: recording a run ---------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

RunRequest cubic_request(std::uint64_t seed) {
  Scenario s = wired_scenario(24);
  s.duration = sec(3);
  return RunRequest::single(
      s, [] { return std::make_unique<Cubic>(); }, seed);
}

TEST(FlightRecorder, IdenticalSeedsProduceByteIdenticalTraces) {
  // The determinism guarantee extended to traces: serial run_scenario and
  // run_many on a pool must write byte-identical JSONL for the same seed.
  const std::string dir = ::testing::TempDir();
  const std::string serial_path = dir + "obs_serial.jsonl";

  RunRequest req = cubic_request(42);
  ObsOptions obs;
  obs.record = true;
  obs.trace_path = serial_path;
  run_scenario(req.scenario, req.flows, req.seed, obs);
  const std::string serial_trace = read_file(serial_path);
  ASSERT_FALSE(serial_trace.empty());

  std::vector<RunRequest> batch;
  std::vector<std::string> paths;
  for (int i = 0; i < 2; ++i) {
    RunRequest r = cubic_request(42);
    r.obs.record = true;
    r.obs.trace_path = dir + "obs_par" + std::to_string(i) + ".jsonl";
    paths.push_back(r.obs.trace_path);
    batch.push_back(std::move(r));
  }
  ThreadPool pool(2);
  run_many(batch, pool);

  for (const std::string& p : paths) {
    EXPECT_EQ(read_file(p), serial_trace) << p;
  }
}

TEST(FlightRecorder, RecordedRunEndsWithOneRunEvent) {
  // Trace readers take the run's end from the trace: its last line is the
  // one "run" event, at the scenario's duration, with sim time only.
  const std::string path = ::testing::TempDir() + "obs_run_end.jsonl";
  RunRequest req = cubic_request(42);
  ObsOptions obs;
  obs.record = true;
  obs.trace_path = path;
  run_scenario(req.scenario, req.flows, req.seed, obs);
  const std::string trace = read_file(path);
  ASSERT_GT(trace.size(), 1u);
  const std::size_t last = trace.rfind('\n', trace.size() - 2) + 1;
  EXPECT_EQ(trace.substr(last), "{\"t\":3,\"ev\":\"run\"}\n");
  EXPECT_EQ(trace.find("\"ev\":\"run\""), trace.rfind("\"ev\":\"run\""));
}

TEST(FlightRecorder, RecordingDoesNotPerturbTheSimulation) {
  RunRequest req = cubic_request(7);

  auto plain = run_scenario(req.scenario, req.flows, req.seed);
  RunSummary off = summarize(*plain, req.warmup, req.scenario.duration);
  EXPECT_EQ(plain->recorder().recorded(), 0u);

  ObsOptions obs;
  obs.record = true;  // black-box mode: ring only, no sink
  auto recorded = run_scenario(req.scenario, req.flows, req.seed, obs);
  RunSummary on = summarize(*recorded, req.warmup, req.scenario.duration);
  EXPECT_GT(recorded->recorder().recorded(), 0u);

  // Bitwise-identical summaries: observation must not change the experiment.
  EXPECT_EQ(off.link_utilization, on.link_utilization);
  EXPECT_EQ(off.avg_delay_ms, on.avg_delay_ms);
  EXPECT_EQ(off.total_throughput_bps, on.total_throughput_bps);
  ASSERT_EQ(off.flows.size(), on.flows.size());
  for (std::size_t i = 0; i < off.flows.size(); ++i) {
    EXPECT_EQ(off.flows[i].throughput_bps, on.flows[i].throughput_bps);
    EXPECT_EQ(off.flows[i].avg_rtt_ms, on.flows[i].avg_rtt_ms);
    EXPECT_EQ(off.flows[i].loss_rate, on.flows[i].loss_rate);
  }
}

TEST(RunSummaryJson, ContainsAllSummaryFields) {
  RunRequest req = cubic_request(1);
  auto net = run_scenario(req.scenario, req.flows, req.seed);
  RunSummary summary = summarize(*net, req.warmup, req.scenario.duration);
  std::string json = to_json(summary);
  EXPECT_NE(json.find("\"link_utilization\":"), std::string::npos);
  EXPECT_NE(json.find("\"avg_delay_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"total_throughput_bps\":"), std::string::npos);
  EXPECT_NE(json.find("\"flows\":["), std::string::npos);
  EXPECT_NE(json.find("\"throughput_bps\":"), std::string::npos);
  EXPECT_NE(json.find("\"loss_rate\":"), std::string::npos);
}

TEST(NetworkMetrics, FinalizedRegistryDescribesTheRun) {
  RunRequest req = cubic_request(3);
  auto net = run_scenario(req.scenario, req.flows, req.seed);
  net->finalize_metrics();
  const MetricsRegistry& m = net->metrics();
  EXPECT_GT(m.counters().at("sim.events_processed").value(), 0);
  EXPECT_EQ(m.counters().at("flows").value(), 1);
  EXPECT_GT(m.counters().at("flow.packets_sent").value(), 0);
  EXPECT_GT(m.counters().at("flow.packets_acked").value(), 0);
  EXPECT_GT(m.gauges().at("sim.event_queue_max_pending").last(), 0);
  // Calling it again must not double-count (idempotence guard).
  net->finalize_metrics();
  EXPECT_EQ(m.counters().at("flows").value(), 1);
}

}  // namespace
}  // namespace libra
