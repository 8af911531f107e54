// record_run: records a short simulator run with the flight recorder
// streaming JSONL to a file, then prints the run summary as JSON. Uses
// inference-mode CCAs only (no RL training), so it runs in well under a
// second — the CI trace round-trip smoke test (scripts/check.sh) pipes its
// output through trace_summarize, and the telemetry smoke leg feeds its
// telemetry dumps to report_html.
//
//   record_run [--out=trace.jsonl] [--cca=cubic|bbr|libra] [--rate=MBPS]
//              [--duration=SECS] [--seed=N] [--flows=N] [--profile]
//              [--no-trace] [--telemetry=FILE.jsonl] [--sample-ms=MS]
//
// The trace ends with the run's "run" event (sim time only), so traces stay
// byte-identical per seed; the summary JSON carries the wall time.
// --profile enables the in-process profiler and prints its call-tree report
// to stderr after the run.
// --no-trace disables the flight recorder entirely (telemetry-only runs and
// clean overhead measurements). --telemetry enables the columnar sampler and
// dumps it post-run as JSONL; --sample-ms sets its interval.
// stderr always reports events processed and events/s, so overhead of the
// sampler is measurable by diffing two invocations.
// Numeric values are parsed strictly (flag_parse.h): --rate and --sample-ms
// must be positive numbers, --duration a positive number of seconds on the
// 10 ms measurement grid, --flows a positive integer and --seed an unsigned
// integer; a malformed or out-of-range value prints the usage and exits 2.
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "classic/bbr.h"
#include "classic/cubic.h"
#include "core/factory.h"
#include "flag_parse.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "obs/profiler.h"

namespace {

constexpr const char* kUsage =
    "usage: record_run [--out=trace.jsonl] [--cca=cubic|bbr|libra] "
    "[--rate=MBPS] [--duration=SECS] [--seed=N] [--flows=N] [--profile] "
    "[--no-trace] [--telemetry=FILE.jsonl] [--sample-ms=MS]\n";

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

int main(int argc, char** argv) {
  using namespace libra;
  std::string out_path = "trace.jsonl";
  std::string telemetry_path;
  std::string cca = "cubic";
  double rate_mbps = 48;
  SimDuration duration = sec(5);
  double sample_ms = 1.0;
  std::uint64_t seed = 1;
  int n_flows = 1;
  bool profile = false;
  bool trace = true;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    bool ok = true;
    if (a.rfind("--out=", 0) == 0) {
      out_path = std::string(a.substr(6));
    } else if (a.rfind("--cca=", 0) == 0) {
      cca = std::string(a.substr(6));
    } else if (a.rfind("--rate=", 0) == 0) {
      ok = parse_real(argv[i] + 7, 0, kInf, rate_mbps) && rate_mbps > 0;
    } else if (a.rfind("--duration=", 0) == 0) {
      ok = parse_duration(argv[i] + 11, kWindowGrid, duration);
    } else if (a.rfind("--seed=", 0) == 0) {
      ok = parse_int<std::uint64_t>(argv[i] + 7, 0, ~std::uint64_t{0}, seed);
    } else if (a.rfind("--flows=", 0) == 0) {
      ok = parse_int(argv[i] + 8, 1, std::numeric_limits<int>::max(), n_flows);
    } else if (a.rfind("--telemetry=", 0) == 0) {
      telemetry_path = std::string(a.substr(12));
    } else if (a.rfind("--sample-ms=", 0) == 0) {
      // At least the simulator clock's 1 us resolution.
      ok = parse_real(argv[i] + 12, 1e-3, kInf, sample_ms);
    } else if (a == "--no-trace") {
      trace = false;
    } else if (a == "--profile") {
      profile = true;
    } else {
      std::cerr << kUsage;
      return 2;
    }
    if (!ok) {
      std::cerr << "bad value: " << a << "\n" << kUsage;
      return 2;
    }
  }

  CcaFactory factory;
  if (cca == "cubic") {
    factory = [] { return std::make_unique<Cubic>(); };
  } else if (cca == "bbr") {
    factory = [] { return std::make_unique<Bbr>(); };
  } else if (cca == "libra") {
    // Inference-mode C-Libra over an untrained brain: the control cycle (and
    // its telemetry stage events) runs fine; decisions are just naive.
    auto brain = make_libra_rl_brain(seed);
    factory = [brain] { return make_c_libra(brain); };
  } else {
    std::cerr << "error: unknown --cca=" << cca << " (cubic|bbr|libra)\n";
    return 2;
  }

  Scenario s = wired_scenario(rate_mbps);
  s.duration = duration;

  ObsOptions obs;
  obs.record = trace;
  if (trace) obs.trace_path = out_path;
  if (!telemetry_path.empty()) {
    obs.telemetry.enabled = true;
    obs.telemetry.config.sample_interval =
        std::max<SimDuration>(1, static_cast<SimDuration>(sample_ms * 1000.0));
    obs.telemetry.jsonl_path = telemetry_path;
  }

  std::vector<FlowSpec> flows;
  for (int i = 0; i < n_flows; ++i) flows.push_back({factory});

  if (profile) Profiler::instance().enable();
  auto net = run_scenario(s, flows, seed, obs);
  RunSummary summary = summarize(*net, sec(1), s.duration);

  if (trace) {
    std::cerr << "recorded " << net->recorder().recorded() << " events to "
              << out_path << "\n";
  }
  if (obs.telemetry.enabled) {
    std::cerr << "telemetry: " << net->telemetry().samples() << " samples, "
              << net->telemetry().stage_events().size() << " stage events, "
              << "bucket width " << to_msec(net->telemetry().bucket_width())
              << " ms\n";
  }
  const double wall = net->wall_time_s();
  const auto events = net->events().processed();
  std::cerr << "events " << events << " wall_s " << wall << " events_per_s "
            << (wall > 0 ? static_cast<double>(events) / wall : 0.0) << "\n";
  std::cout << to_json(summary) << "\n";
  if (profile) {
    Profiler::instance().disable();
    std::cerr << "\n" << Profiler::instance().text_report();
  }
  return 0;
}
