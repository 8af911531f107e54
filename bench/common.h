// Shared plumbing for the per-figure/table bench binaries.
//
// Every binary regenerates one table or figure from the paper's evaluation:
// it prints the same rows/series the paper reports, produced by this repo's
// simulator + CCA implementations. Absolute numbers differ from the authors'
// testbed; the *shape* (who wins, by what factor, where crossovers fall) is
// the reproduction target. EXPERIMENTS.md records paper-vs-measured.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/metered.h"
#include "harness/parallel.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/zoo.h"
#include "obs/profiler.h"
#include "rl/simd.h"
#include "tools/flag_parse.h"

namespace libra::benchx {

/// Options common to the bench binaries. Parsed by parse_args; unknown flags
/// warn and are ignored so figure scripts stay forward-compatible. Only
/// bench_fig08_tracking honours --duration and --record.
struct BenchArgs {
  bool json = false;          // --json[=PATH] or LIBRA_JSON_OUT=PATH
  std::string json_path;      // empty: JSON document goes to stdout at exit
  std::string record_prefix;  // --record=PREFIX → stream per-run JSONL traces
  SimDuration duration = 0;   // --duration=SECS run-length override (0: default)
  bool profile = false;       // --profile → in-process profiler report at exit
};

/// Enables the JsonReport capture hooks in harness/report.h plus a one-time
/// atexit finalizer, so every section/table the bench prints is also emitted
/// as one JSON document (to `path`, or stdout when empty).
inline void enable_json(const std::string& path) {
  JsonReport::instance().enable(path);
  // Kernel ISA the numbers were produced with (dispatch decision + what the
  // host supports) — cross-host bench comparisons need it to be interpretable.
  JsonReport::instance().add_json(
      "simd", std::string("{\"active\":\"") + simd::isa_name(simd::active()) +
                  "\",\"avx2_fma_supported\":" +
                  (simd::avx2_supported() ? "true" : "false") + "}");
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit([] { JsonReport::instance().finalize(); });
  }
}

/// Honors LIBRA_JSON_OUT=PATH. Called from header(), so every bench binary
/// supports env-var-driven JSON capture even before flag parsing.
inline void apply_json_env() {
  if (const char* env = std::getenv("LIBRA_JSON_OUT"); env && *env) enable_json(env);
}

/// Parses bench CLI flags (and the LIBRA_JSON_OUT environment variable).
/// --duration must be a positive number of seconds on the 10 ms measurement
/// grid; a bad value prints usage to stderr and exits 2 before any output.
inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "--json") {
      args.json = true;
    } else if (a.rfind("--json=", 0) == 0) {
      args.json = true;
      args.json_path = std::string(a.substr(7));
    } else if (a.rfind("--record=", 0) == 0) {
      args.record_prefix = std::string(a.substr(9));
    } else if (a.rfind("--duration=", 0) == 0) {
      if (!parse_duration(argv[i] + 11, kWindowGrid, args.duration)) {
        std::cerr << "bad value: " << a << "\nusage: " << argv[0]
                  << " [--json[=PATH]] [--record=PREFIX] [--duration=SECS] [--profile]\n"
                     "  --duration  positive seconds on the 10 ms grid\n";
        std::exit(2);
      }
    } else if (a == "--profile") {
      args.profile = true;
    } else {
      std::cerr << "warning: unknown flag " << a << " (ignored)\n";
    }
  }
  if (const char* env = std::getenv("LIBRA_JSON_OUT"); env && *env) {
    args.json = true;
    args.json_path = env;
  }
  if (args.json) enable_json(args.json_path);
  if (args.profile) {
    // Profile the whole bench; at exit the call tree goes to stderr and (when
    // JSON capture is on) into the document under "profile". Runs before the
    // JsonReport finalizer because atexit handlers fire in reverse order of
    // registration and enable_json has already registered its own.
    Profiler::instance().enable();
    std::atexit([] {
      Profiler::instance().disable();
      JsonReport::instance().add_json("profile", Profiler::instance().to_json());
      std::cerr << "\n" << Profiler::instance().text_report();
    });
  }
  return args;
}

/// Process-wide zoo: trains (or loads from ./brains) each RL policy once.
inline CcaZoo& zoo() {
  static CcaZoo instance{ZooConfig{}};
  return instance;
}

/// Zoo with paper-scale (2x512) actor/critic networks — used by the overhead
/// benches, where the model width is the quantity under measurement. Lightly
/// trained: decision *cost* is architecture-determined, not policy-determined.
inline CcaZoo& wide_zoo() {
  static CcaZoo instance = [] {
    ZooConfig cfg;
    cfg.brain_dir = "brains-w512";
    cfg.train_episodes = 30;
    cfg.hidden_width = 512;
    return CcaZoo(cfg);
  }();
  return instance;
}

/// Mean of per-seed run summaries (the paper averages 5 runs; we default 3).
/// Seeds are 1000..1000+runs-1; the fan-out over the process-wide pool is
/// deterministic (see harness/parallel.h), so bench output is reproducible
/// at any thread count, including LIBRA_THREADS=1.
using Averaged = AveragedSummary;

inline Averaged average_runs(const Scenario& scenario, const CcaFactory& factory,
                             int runs = 3, SimDuration warmup = sec(2)) {
  return average_runs_parallel(scenario, factory, runs, warmup, default_pool(),
                               /*base_seed=*/1000);
}

inline void header(const std::string& id, const std::string& what) {
  apply_json_env();
  JsonReport::instance().set_bench(id, what);
  std::cout << "\n########################################################\n"
            << "# " << id << " — " << what << "\n"
            << "########################################################\n";
}

}  // namespace libra::benchx
