// Dumbbell topology: N sender/receiver pairs sharing one bottleneck link
// (droptail or CoDel, per LinkConfig::codel), with per-flow return-path
// delay. This is the shape of every experiment in the paper
// (Pantheon/Mahimahi emulation and the EC2 paths alike) and of the Sec. 2
// CoDel ablation.
#pragma once

#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "sim/flow.h"
#include "sim/link.h"

namespace libra {

class Network {
 public:
  explicit Network(LinkConfig link_config);

  /// Adds a backlogged flow driven by `cca`. `extra_ack_delay` lengthens this
  /// flow's return path beyond the link's propagation delay (heterogeneous
  /// RTTs). The flow's packets are ECT when the link marks. Returns the flow
  /// index.
  int add_flow(std::unique_ptr<CongestionControl> cca, SimTime start_time = 0,
               SimTime stop_time = kSimTimeMax, SimDuration extra_ack_delay = 0);

  /// Starts every flow and runs the event loop until `t`.
  void run_until(SimTime t);

  /// Wall-clock seconds spent inside run_until so far — with events().now()
  /// this gives the run's wall/sim speed ratio.
  double wall_time_s() const { return wall_time_s_; }

  EventQueue& events() { return events_; }
  const EventQueue& events() const { return events_; }
  Link& link() { return *link_; }
  Flow& flow(int i) { return *flows_.at(static_cast<std::size_t>(i)); }
  const Flow& flow(int i) const { return *flows_.at(static_cast<std::size_t>(i)); }
  int flow_count() const { return static_cast<int>(flows_.size()); }

  /// Fraction of the bottleneck capacity actually used over [t0, t1), from
  /// the bytes delivered to receivers. Both bounds must sit on the
  /// measurement grid (kWindowGrid); otherwise std::invalid_argument.
  double link_utilization(SimTime t0, SimTime t1) const;

  /// Per-run flight recorder. Disabled (and free) by default; enable it via
  /// `recorder().enable(...)` before run_until to capture the event trace.
  /// Every component (link, senders, CCAs) is wired to it at construction.
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  /// Per-run metrics registry. Counters/gauges are filled by
  /// finalize_metrics(); callers may add their own series too.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Per-run sampling telemetry (columnar per-flow/queue time series).
  /// Disabled and free by default; `telemetry().enable(...)` before the run
  /// starts makes run_until drive a fixed sim-time-interval sampler over
  /// every flow and the bottleneck queue.
  Telemetry& telemetry() { return telemetry_; }
  const Telemetry& telemetry() const { return telemetry_; }

  /// Snapshots end-of-run simulator state (event-queue depth, link drops,
  /// per-flow packet counts) into the metrics registry. Idempotent-ish:
  /// counters are set from absolute totals only once.
  void finalize_metrics();

 private:
  void telemetry_tick();

  EventQueue events_;
  FlightRecorder recorder_;
  MetricsRegistry metrics_;
  Telemetry telemetry_;
  std::unique_ptr<Link> link_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::vector<SimDuration> ack_delays_;
  GridRows<std::int64_t> delivered_;  // bytes delivered to receivers per grid row
  double wall_time_s_ = 0;
  bool started_ = false;
  bool metrics_finalized_ = false;
};

}  // namespace libra
