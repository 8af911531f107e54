// The benchmark's workloads and the measurement loop around them.
//
// Each workload is a closed batch of ops: a worker takes its next op only
// when its last one finished. A batch is a pure function of (workload
// config, --seed, kernel ISA), so its per-op digests and exact work counters
// must repeat exactly every time the batch is repeated; a mismatch, a failed
// output check or an exception counts the op as failed. See README.md for
// why each workload exists and which layers it exercises.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/zoo.h"
#include "layers.h"
#include "timing.h"
#include "util/thread_pool.h"

namespace perfbench {

/// Threads of the pool run_many and the trainer's rollouts fan out over: 2,
/// or nproc if smaller. Fixed so timings do not follow the host's core count;
/// results never depend on it.
std::size_t pool_size();

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string source = "unknown";  // source revision, for provenance only
};

/// Parses the command line into `opts`. Returns "" on success, else a
/// message naming the bad flag.
std::string parse_options(int argc, const char* const* argv, Options& opts);
std::string usage(const char* argv0);

/// What one batch produced.
struct BatchResult {
  double wall_s = 0;               // makespan of the batch's timed ops
  double cpu_s = 0;                // process CPU time over the same span
  std::vector<Interval> ops;       // one per op, in op order
  std::vector<std::uint64_t> op_digest;
  std::vector<bool> op_ok;         // output checks passed
  /// Exact work counters; must repeat exactly for the same seed and ISA.
  std::map<std::string, std::uint64_t> counters;
  /// Layer values only the workload itself can measure (pool use, Libra's
  /// own inference meter, the fleet engine's thread count).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// JSON object describing the workload's fixed configuration.
  virtual std::string config_json() const = 0;
  /// Everything a user pays before the first op. Called several times; each
  /// call must rebuild the same state from scratch.
  virtual void setup() = 0;
  /// False when two set-ups built different state (e.g. brain weights).
  virtual bool setup_consistent() const { return true; }
  /// Runs one batch; `traced` adds the timing decorators and per-op spans
  /// (the profiler itself is switched by the caller).
  virtual BatchResult run_batch(bool traced) = 0;
  /// Simulated flow-seconds one batch covers.
  virtual double batch_flow_seconds() const = 0;
  /// Threads that run the batch's work at once.
  virtual std::size_t threads() const = 0;
};

/// Batch size. kFull is what the benchmark measures. kSmoke keeps every
/// scenario, controller, flow kind and brain shape but makes each batch short,
/// so the tests can run every workload.
enum class Scale { kFull, kSmoke };

/// paper: single-flow runs of the Fig. 7 wired and cellular sets through
/// run_many, with the libra-rl and orca brains trained in set-up.
std::unique_ptr<Workload> make_paper(std::uint64_t seed, libra::ThreadPool& pool,
                                     Scale scale = Scale::kFull);

/// train: PPO training of a fresh libra-rl brain, one train_parallel round
/// per op. It is the first rounds of CcaZoo's own libra-rl training, seeds
/// included. The seeds stay fixed (not taken from --seed): training is
/// chaotic in them, and a 100-round batch's wall time ranged 3.1-7.7 s
/// across trainer seeds.
std::unique_ptr<Workload> make_train(libra::ThreadPool& pool, Scale scale = Scale::kFull);

/// Policy + normalizer serialized with round-trip precision.
std::string serialize_brain(const libra::RlBrain& brain);

/// fleet: a many-flow parking lot under the sharded engine. Starts are
/// staggered and the buffer is about one BDP: with 1000 flows per hop, or a
/// zero stagger, most flows lose every packet of their synchronized initial
/// windows and RTO retries and never deliver a byte (README.md has the
/// measurements).
std::unique_ptr<Workload> make_fleet(std::uint64_t seed, Scale scale = Scale::kFull);

/// Threads the fleet engine runs at once: its own pool plus the calling
/// thread, which runs shard 0. A one-thread engine pool runs every shard on
/// the caller, so the count is 3 (a 2-thread pool) when nproc allows, else 1.
std::size_t fleet_threads();

// ---- measurement ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one invocation reports.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string provenance_json;
  std::string work_json;  // exact work counters and digest of the first batch
};

/// Set-up several times, then either repeat untraced batches for
/// `opts.seconds` (end-to-end metrics) or run one untraced and one traced
/// batch (per-layer metrics).
Report run_benchmark(Workload& workload, const Options& opts);

/// Per-layer metrics from a traced batch, the untraced batch it repeats,
/// and the span table of the traced one.
std::vector<Metric> layer_metrics(const SpanTable& spans, const BatchResult& plain,
                                  const BatchResult& traced);

}  // namespace perfbench
