// Parallel experiment engine: fans independent runs (seeds x scenarios x CCA
// factories) across a thread pool.
//
// Every run owns its Network and EventQueue, so parallelism is strictly
// per-run — nothing inside a simulation is shared mutably. Determinism
// guarantee: run_many() returns, in submission order, RunSummary values
// bitwise-identical to executing the same requests serially with run_single,
// provided each factory builds controllers that do not write shared state
// (all classic CCAs; learned CCAs in inference mode — frozen brains are
// read-only and policy sampling uses per-instance RNG streams).
//
// Thread count comes from the pool; default_pool() honours the LIBRA_THREADS
// environment variable, else uses every hardware thread.
#pragma once

#include <functional>
#include <vector>

#include "harness/runner.h"
#include "harness/scenario.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace libra {

/// One experiment: a scenario realization (per-run seed) driven by flows.
struct RunRequest {
  Scenario scenario;
  /// Flows to attach; must be safe to invoke from worker threads.
  std::vector<FlowSpec> flows;
  std::uint64_t seed = 1;
  SimDuration warmup = sec(2);
  /// Per-run trace/recording switches (off by default). Give each request its
  /// own trace_path — requests must not share a file.
  ObsOptions obs;

  /// When set, invoked with the completed Network (on the worker thread,
  /// after summarize, before the network is destroyed). The escape hatch for
  /// experiments that need more than a RunSummary — e.g. per-flow rate bins
  /// over time. Must only touch state owned by this request.
  std::function<void(const Network&)> inspect;

  /// Single-flow convenience, mirroring run_single's signature.
  static RunRequest single(Scenario scenario, CcaFactory factory,
                           std::uint64_t seed, SimDuration warmup = sec(2));
};

/// Snapshot handed to RunManyOptions::on_progress after each completed run.
struct RunProgress {
  std::size_t done = 0;   ///< Runs completed so far (including this one).
  std::size_t total = 0;  ///< Runs in the batch.
  /// Simulated flow-seconds completed so far / in the whole batch: for each
  /// run, the sum over its flows of the active interval clamped to the
  /// scenario duration ([start, min(stop, duration))). Weights progress by
  /// how much simulated work each run carries, so a batch mixing short and
  /// long scenarios reports smoother progress than the raw run count.
  double completed_flow_seconds = 0;
  double total_flow_seconds = 0;
};

/// Flow-seconds one request contributes to RunProgress (see above).
double request_flow_seconds(const RunRequest& request);

/// Batch-level switches for run_many. All optional; none affect the returned
/// summaries (determinism guarantee unchanged).
struct RunManyOptions {
  /// Fired once per completed run, serialized under an internal mutex so the
  /// callback never runs concurrently with itself. `done`/`total` count runs;
  /// the flow-seconds fields weight progress by simulated work.
  std::function<void(const RunProgress&)> on_progress;
  /// When set, each run's metrics registry — plus a "runs" counter and a
  /// "run_wall_ms" histogram of per-run wall time — is merged here. merge()
  /// locks the destination, so workers aggregate safely.
  MetricsRegistry* metrics = nullptr;
};

/// Process-wide pool shared by the batch helpers (created on first use).
ThreadPool& default_pool();

/// Runs every request on `pool` and returns summaries in submission order.
/// The first exception thrown by any run is rethrown after the batch drains.
std::vector<RunSummary> run_many(const std::vector<RunRequest>& requests,
                                 ThreadPool& pool,
                                 const RunManyOptions& options);
std::vector<RunSummary> run_many(const std::vector<RunRequest>& requests,
                                 ThreadPool& pool);
std::vector<RunSummary> run_many(const std::vector<RunRequest>& requests);

/// Mean per-seed metrics (the paper averages 5 runs; benches default 3).
struct AveragedSummary {
  double link_utilization = 0;
  double avg_delay_ms = 0;
  double throughput_bps = 0;
  double loss_rate = 0;  // of flow 0, matching the serial bench helper
};

/// Parallel replacement for the benches' seed-averaging loop: runs
/// `runs` single-flow experiments with seeds base_seed..base_seed+runs-1
/// and averages them. Deterministic: same inputs, same result, any pool.
AveragedSummary average_runs_parallel(const Scenario& scenario,
                                      const CcaFactory& factory, int runs,
                                      SimDuration warmup, ThreadPool& pool,
                                      std::uint64_t base_seed = 1000);

}  // namespace libra
