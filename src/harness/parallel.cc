#include "harness/parallel.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

namespace libra {

RunRequest RunRequest::single(Scenario scenario, CcaFactory factory,
                              std::uint64_t seed, SimDuration warmup) {
  RunRequest req;
  req.scenario = std::move(scenario);
  req.flows.push_back(FlowSpec{std::move(factory)});
  req.seed = seed;
  req.warmup = warmup;
  return req;
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

double request_flow_seconds(const RunRequest& request) {
  double total = 0;
  const SimTime duration = request.scenario.duration;
  for (const FlowSpec& flow : request.flows) {
    const SimTime start = std::clamp<SimTime>(flow.start, 0, duration);
    const SimTime stop = std::clamp<SimTime>(flow.stop, start, duration);
    total += to_seconds(stop - start);
  }
  return total;
}

std::vector<RunSummary> run_many(const std::vector<RunRequest>& requests,
                                 ThreadPool& pool,
                                 const RunManyOptions& options) {
  for (const RunRequest& req : requests) {
    if (req.flows.empty()) throw std::invalid_argument("run_many: request with no flows");
  }
  std::vector<RunSummary> results(requests.size());
  std::mutex progress_mu;
  RunProgress progress;
  progress.total = requests.size();
  std::vector<double> flow_seconds;
  if (options.on_progress) {
    flow_seconds.reserve(requests.size());
    for (const RunRequest& req : requests) {
      flow_seconds.push_back(request_flow_seconds(req));
      progress.total_flow_seconds += flow_seconds.back();
    }
  }
  parallel_for_chunked(pool, 0, requests.size(), 1, [&](std::size_t i) {
    const RunRequest& req = requests[i];
    auto t0 = std::chrono::steady_clock::now();
    auto net = run_scenario(req.scenario, req.flows, req.seed, req.obs);
    results[i] = summarize(*net, req.warmup, req.scenario.duration);
    if (req.inspect) req.inspect(*net);
    if (options.metrics) {
      // Stamp batch-level series into the (still single-threaded) per-run
      // registry, then fold everything into the aggregate in one locked merge.
      double wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      MetricsRegistry& local = net->metrics();
      local.counter("runs").inc();
      local
          .histogram("run_wall_ms",
                     Histogram::exponential(1.0, 2.0, 20))  // 1 ms .. ~8.7 min
          .add(wall_ms);
      options.metrics->merge(local);
    }
    if (options.on_progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      ++progress.done;
      progress.completed_flow_seconds += flow_seconds[i];
      options.on_progress(progress);
    }
  });
  return results;
}

std::vector<RunSummary> run_many(const std::vector<RunRequest>& requests,
                                 ThreadPool& pool) {
  return run_many(requests, pool, RunManyOptions{});
}

std::vector<RunSummary> run_many(const std::vector<RunRequest>& requests) {
  return run_many(requests, default_pool(), RunManyOptions{});
}

AveragedSummary average_runs_parallel(const Scenario& scenario,
                                      const CcaFactory& factory, int runs,
                                      SimDuration warmup, ThreadPool& pool,
                                      std::uint64_t base_seed) {
  std::vector<RunRequest> batch;
  batch.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    batch.push_back(RunRequest::single(
        scenario, factory, base_seed + static_cast<std::uint64_t>(r), warmup));
  }
  std::vector<RunSummary> summaries = run_many(batch, pool);

  AveragedSummary avg;
  for (const RunSummary& s : summaries) {
    avg.link_utilization += s.link_utilization;
    avg.avg_delay_ms += s.avg_delay_ms;
    avg.throughput_bps += s.total_throughput_bps;
    avg.loss_rate += s.flows[0].loss_rate;
  }
  if (runs > 0) {
    avg.link_utilization /= runs;
    avg.avg_delay_ms /= runs;
    avg.throughput_bps /= runs;
    avg.loss_rate /= runs;
  }
  return avg;
}

}  // namespace libra
