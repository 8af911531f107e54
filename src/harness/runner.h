// Experiment runner: builds a Network from a Scenario, attaches flows, runs,
// and produces the summary metrics every bench reports.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "sim/network.h"

namespace libra {

using CcaFactory = std::function<std::unique_ptr<CongestionControl>()>;

struct FlowSpec {
  CcaFactory make_cca;
  SimTime start = 0;
  SimTime stop = kSimTimeMax;
  SimDuration extra_ack_delay = 0;
};

struct FlowSummary {
  double throughput_bps = 0;
  double avg_rtt_ms = 0;
  double loss_rate = 0;
};

struct RunSummary {
  double link_utilization = 0;
  double avg_delay_ms = 0;   // mean per-ACK RTT across flows
  double total_throughput_bps = 0;
  /// Wall-clock seconds the simulation took vs simulated seconds covered.
  /// Host-dependent (excluded from the bitwise-determinism guarantee, which
  /// covers the simulated quantities above).
  double wall_time_s = 0;
  double sim_time_s = 0;
  std::vector<FlowSummary> flows;

  /// Simulated seconds per wall second (0 when wall time was not measured).
  double speed_ratio() const {
    return wall_time_s > 0 ? sim_time_s / wall_time_s : 0.0;
  }
};

/// Serializes a summary as one JSON object (schema in EXPERIMENTS.md).
std::string to_json(const RunSummary& summary);

/// Per-run observability switches. Defaults are all-off: the recorder stays
/// disabled and costs one predicted branch per would-be record point.
struct ObsOptions {
  bool record = false;  // enable the flight recorder for this run
  std::size_t ring_capacity = FlightRecorder::kDefaultCapacity;
  /// When non-empty, the trace streams to this file while recording (the ring
  /// flushes instead of overwriting), so runs of any length trace completely.
  std::string trace_path;
  /// Sampling telemetry (columnar per-flow/queue time series). Disabled by
  /// default; when enabled the sampler runs at telemetry.config's interval
  /// and the columnar store is dumped to the configured path(s) post-run.
  TelemetryOptions telemetry;
};

/// Builds the network and runs it to `scenario.duration`, which must be a
/// multiple of the measurement grid (kWindowGrid; std::invalid_argument
/// otherwise, before anything runs). The returned Network owns the flows and
/// their per-window counts.
std::unique_ptr<Network> run_scenario(const Scenario& scenario,
                                      const std::vector<FlowSpec>& flows,
                                      std::uint64_t seed);

/// As above, with observability: enables the flight recorder / trace sink per
/// `obs`, and finalizes the network's metrics registry after the run. A
/// recorded trace ends with one "run" event at the run's end (sim time only),
/// which tells a trace reader where the run stopped.
std::unique_ptr<Network> run_scenario(const Scenario& scenario,
                                      const std::vector<FlowSpec>& flows,
                                      std::uint64_t seed, const ObsOptions& obs);

/// Metrics over [warmup, horizon) of an already-run network; both bounds on
/// the measurement grid.
RunSummary summarize(const Network& net, SimTime warmup, SimTime horizon);

/// Convenience: single flow, full duration, default 2 s warmup.
RunSummary run_single(const Scenario& scenario, const CcaFactory& make_cca,
                      std::uint64_t seed, SimDuration warmup = sec(2));

}  // namespace libra
