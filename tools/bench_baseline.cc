// Continuous benchmark-regression driver.
//
// Runs a fixed set of hand-timed workloads (the repo's one microbenchmark
// harness; the schema is ours), reports median/stddev over N repeats, and
// either records a baseline JSON or compares against a committed one:
//
//   bench_baseline --record=BENCH_seed.json --label=seed --git-sha=$(git rev-parse HEAD)
//   bench_baseline --compare=BENCH_seed.json            # exit 1 on regression
//
// Each metric carries its own tolerance *in the baseline file*, so the
// pass/fail contract is versioned with the numbers it applies to;
// --tolerance=X (a positive fraction) overrides all of them. Numeric flags
// are strict (flag_parse.h): a malformed or out-of-range value prints usage
// and exits 2 before any metric runs.
//
// Schema ("libra-bench-v1"):
//   {"schema":"libra-bench-v1","label":...,"git_sha":...,
//    "host":{"sysname":...,"release":...,"machine":...,"cores":N},
//    "repeats":N,"metrics":{"<name>":{"median":M,"stddev":S,"unit":U,
//                                     "tolerance":T}}}
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "classic/bbr.h"
#include "classic/cubic.h"
#include "classic/dctcp.h"
#include "flag_parse.h"
#include "harness/fleet_scenario.h"
#include "harness/parallel.h"
#include "harness/scenario.h"
#include "learned/libra_rl.h"
#include "obs/json.h"
#include "obs/json_parse.h"
#include "obs/profiler.h"
#include "rl/simd.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "trace/lte_model.h"
#include "util/rng.h"

namespace libra {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Workloads --------------------------------------------------------------
// Each returns one sample of its metric in the metric's unit; sizes are tuned
// so a repeat stays well under a second.

double wl_event_queue_ns() {
  constexpr int kCycles = 200, kEvents = 1000;
  int sink = 0;
  double t0 = now_s();
  for (int c = 0; c < kCycles; ++c) {
    EventQueue q;
    for (int i = 0; i < kEvents; ++i) q.schedule_at(i, [&sink] { ++sink; });
    q.run_until(2 * kEvents);
  }
  double elapsed = now_s() - t0;
  if (sink != kCycles * kEvents) std::abort();  // the sink is also the check
  return elapsed * 1e9 / (kCycles * kEvents);
}

double wl_event_queue_large_capture_ns() {
  // Packet-sized closure: the shape the ACK path schedules per delivery.
  struct FakeAckContext {
    Packet pkt;
    void* owner = nullptr;
    std::size_t idx = 0;
  };
  constexpr int kCycles = 200, kEvents = 1000;
  long sink = 0;
  double t0 = now_s();
  for (int c = 0; c < kCycles; ++c) {
    EventQueue q;
    for (int i = 0; i < kEvents; ++i) {
      FakeAckContext ctx;
      ctx.pkt.seq = static_cast<std::uint64_t>(i);
      ctx.owner = &sink;
      ctx.idx = static_cast<std::size_t>(i);
      q.schedule_at(i, [ctx, &sink] { sink += static_cast<long>(ctx.pkt.seq); });
    }
    q.run_until(2 * kEvents);
  }
  double elapsed = now_s() - t0;
  if (sink == 0) std::abort();
  return elapsed * 1e9 / (kCycles * kEvents);
}

double simulated_second_cubic_ns_per_event(double cap_mbps, bool recorded = false) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(cap_mbps));
  cfg.buffer_bytes = 150'000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  if (recorded) net.recorder().enable();
  net.add_flow(std::make_unique<Cubic>());
  double t0 = now_s();
  net.run_until(sec(1));
  double elapsed = now_s() - t0;
  return elapsed * 1e9 / static_cast<double>(net.events().processed());
}

double wl_sim_second_cubic_10_ns() { return simulated_second_cubic_ns_per_event(10); }
double wl_sim_second_cubic_100_ns() { return simulated_second_cubic_ns_per_event(100); }
// The same run with the flight recorder on as a black-box ring (no sink): the
// gap to sim_second_cubic_100mbps is the per-event cost of recording.
double wl_sim_second_cubic_recorded_100_ns() {
  return simulated_second_cubic_ns_per_event(100, /*recorded=*/true);
}

double wl_seed_sweep_ms() {
  // The parallel experiment engine end to end: 12 seeds of a 4-simulated-
  // second wired run fanned over the process-wide pool.
  Scenario s = wired_scenario(24);
  s.duration = sec(4);
  CcaFactory factory = [] { return std::make_unique<Cubic>(); };
  std::vector<RunRequest> reqs;
  for (int r = 0; r < 12; ++r)
    reqs.push_back(RunRequest::single(s, factory, 1000 + static_cast<std::uint64_t>(r)));
  double t0 = now_s();
  std::vector<RunSummary> out = run_many(reqs, default_pool());
  double elapsed = now_s() - t0;
  if (out.size() != reqs.size()) std::abort();
  return elapsed * 1e3;
}

double wl_ppo_inference_ns() {
  RlCcaConfig cfg = libra_rl_config();
  RlBrain brain(make_ppo_config(cfg, 3, {64, 64}), feature_frame_size(cfg.features));
  Vector s(brain.agent.config().state_dim, 0.1);
  constexpr int kIters = 2000;
  double acc = 0;
  double t0 = now_s();
  for (int i = 0; i < kIters; ++i) acc += brain.agent.act_greedy(s);
  double elapsed = now_s() - t0;
  if (std::isnan(acc)) std::abort();
  return elapsed * 1e9 / kIters;
}

double wl_ppo_update_ms() {
  // Isolates Ppo::update: the rollout buffer is refilled off the clock.
  RlCcaConfig cfg = libra_rl_config();
  PpoConfig ppo = make_ppo_config(cfg, 3, {64, 64});
  PpoAgent agent(ppo);
  Rng rng(5);
  Vector s(ppo.state_dim);
  constexpr int kUpdates = 3;
  double elapsed = 0;
  for (int u = 0; u < kUpdates; ++u) {
    while (agent.buffered_transitions() < ppo.horizon) {
      for (double& v : s) v = rng.uniform(-1.0, 1.0);
      agent.give_reward(-std::abs(agent.act(s) - s[0]));
    }
    double t0 = now_s();
    agent.flush_update(0.0);
    elapsed += now_s() - t0;
  }
  return elapsed * 1e3 / kUpdates;
}

double wl_wide_forward_batch_us() {
  // Paper-scale serving shape: a batch of 64 states through a 2x512 actor
  // with libra-rl's state size. Untrained weights — inference cost is
  // architecture-determined, not policy-determined.
  RlCcaConfig cfg = libra_rl_config();
  const std::size_t state_dim = make_ppo_config(cfg).state_dim;
  Rng init(3);
  const Mlp actor({state_dim, 512, 512, 1}, init);
  constexpr std::size_t kBatch = 64;
  constexpr int kIters = 4;
  MlpWorkspace ws;
  ws.configure(actor, kBatch);
  ws.set_batch(kBatch);
  Rng rng(11);
  for (double& v : ws.input().data()) v = rng.uniform(-1.0, 1.0);
  double acc = 0;
  double t0 = now_s();
  for (int i = 0; i < kIters; ++i) {
    actor.forward_batch(ws);
    acc += ws.output()(0, 0);
  }
  double elapsed = now_s() - t0;
  if (std::isnan(acc)) std::abort();
  return elapsed * 1e6 / (kIters * kBatch);
}

double wl_telemetry_sample_1ms_ms() {
  // Telemetry overhead shape from ISSUE/EXPERIMENTS: a multi-flow wired run
  // with the 1 ms sampler on, timed end to end. Compare against the cubic
  // sim-second workloads to see the sampler's share; the acceptance bar is
  // single-digit percent.
  constexpr int kFlows = 20;
  Scenario s = wired_scenario(48);
  s.duration = sec(1);
  std::vector<FlowSpec> flows;
  for (int i = 0; i < kFlows; ++i)
    flows.push_back({[] { return std::make_unique<Cubic>(); }});
  ObsOptions obs;
  obs.telemetry.enabled = true;
  obs.telemetry.config.sample_interval = msec(1);
  double t0 = now_s();
  auto net = run_scenario(s, flows, 7, obs);
  double elapsed = now_s() - t0;
  if (net->telemetry().samples() == 0) std::abort();
  return elapsed * 1e3;
}

double wl_lte_trace_ms() {
  std::uint64_t seed = 1;
  constexpr int kTraces = 3;
  double acc = 0;
  double t0 = now_s();
  for (int i = 0; i < kTraces; ++i) {
    auto t = make_lte_trace(LteProfile::kDriving, sec(60), seed++);
    acc += t->rate_at(sec(30));
  }
  double elapsed = now_s() - t0;
  if (acc <= 0) std::abort();
  return elapsed * 1e3 / kTraces;
}

// --- bench_fleet: the many-flow engine -------------------------------------
// Incast fan-ins at 100 and 1000 flows, serial mode. ns/event is the per-
// event cost of the SoA engine (events/s in reports is its reciprocal) on a
// packet-dominated 960 Mbps fan-in. fleet_incast_1000_soa instead runs a
// 96 Mbps 1000-flow fan-in, where per-flow throughput is tiny and the shard
// scan's per-tick work dominates, in wall ms per simulated second.

FleetSummary run_fleet_incast(int flows, double sim_seconds,
                              double rate_mbps = 960.0, bool health = false) {
  FleetSpec spec = incast_fleet(flows, rate_mbps, msec(1));
  spec.duration = static_cast<SimDuration>(sim_seconds * 1e6);
  spec.warmup = msec(250);
  std::vector<FleetFlowPlan> plans = plan_fleet_flows(spec, 11);
  FleetNetwork net(fleet_links(spec), fleet_options(spec, 11, {}));
  if (health) net.enable_health();
  for (const FleetFlowPlan& p : plans) {
    FleetFlowDef def;
    def.cca = std::make_unique<Cubic>();
    def.start = p.start;
    def.enter_hop = p.enter_hop;
    def.exit_hop = p.exit_hop;
    net.add_flow(std::move(def));
  }
  net.run();
  FleetSummary s = net.summarize();
  if (s.total_throughput_bps <= 0 || s.events_processed == 0) std::abort();
  return s;
}

double wl_fleet_incast_100_ns() {
  FleetSummary s = run_fleet_incast(100, 1.0);
  return s.wall_time_s * 1e9 / static_cast<double>(s.events_processed);
}

double wl_fleet_health_100_ns() {
  // fleet_incast_100 with the windowed health accumulators on: the pair
  // bounds the streaming-health hot-path overhead (acceptance: <= 5%).
  FleetSummary s = run_fleet_incast(100, 1.0, 960.0, /*health=*/true);
  return s.wall_time_s * 1e9 / static_cast<double>(s.events_processed);
}

double wl_fleet_incast_1000_ns() {
  FleetSummary s = run_fleet_incast(1000, 0.5);
  return s.wall_time_s * 1e9 / static_cast<double>(s.events_processed);
}

double wl_fleet_incast_1000_soa_ms() {
  FleetSummary s = run_fleet_incast(1000, 5.0, 96.0);
  return s.wall_time_s * 1e3 / s.sim_time_s;
}

double wl_dctcp_incast_100_ns() {
  // The datacenter shape: DCTCP on an ECN-marking incast fan-in. Relative to
  // fleet_incast_100 this prices the marking check plus DCTCP's per-ACK CE
  // accounting; the workload also keeps the ECN hot path exercised nightly.
  FleetSpec spec = incast_fleet(100, 960.0, msec(1));
  spec.duration = sec(1);
  spec.warmup = msec(250);
  spec.ecn_threshold_bytes = 45 * 1000;
  std::vector<FleetFlowPlan> plans = plan_fleet_flows(spec, 11);
  FleetNetwork net(fleet_links(spec), fleet_options(spec, 11, {}));
  for (const FleetFlowPlan& p : plans) {
    FleetFlowDef def;
    def.cca = std::make_unique<Dctcp>();
    def.start = p.start;
    def.enter_hop = p.enter_hop;
    def.exit_hop = p.exit_hop;
    net.add_flow(std::move(def));
  }
  net.run();
  FleetSummary s = net.summarize();
  if (s.total_throughput_bps <= 0 || s.events_processed == 0) std::abort();
  return s.wall_time_s * 1e9 / static_cast<double>(s.events_processed);
}

double wl_policed_bbr_ns() {
  // BBR through a token-bucket policer: the adversarial-path shape. Exercises
  // the policer admission check on every packet plus BBR's long-term
  // bandwidth sampling (engaged, since the policer drops well over 20%).
  Scenario s = policed_wan_scenario(40.0, 10.0);
  LinkConfig cfg = s.link_config(11);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<Bbr>());
  double t0 = now_s();
  net.run_until(sec(2));
  double elapsed = now_s() - t0;
  return elapsed * 1e9 / static_cast<double>(net.events().processed());
}

struct MetricDef {
  const char* name;
  const char* unit;
  double tolerance;  // default relative headroom recorded into the baseline
  double (*run)();
};

// Tolerances are generous because container CI shares cores; real
// regressions here are multiples, not percentages (the PR-1 hot-path work
// moved these 3-10x). Short workloads get the widest headroom — a scheduler
// hiccup on a 1-core box can double a 20 ms sample — while the long, stable
// ones (ppo_update ~45 ms/sample, stddev < 1%) stay tight.
constexpr MetricDef kMetrics[] = {
    {"event_queue_schedule_run", "ns/item", 0.50, wl_event_queue_ns},
    {"event_queue_large_capture", "ns/item", 0.50, wl_event_queue_large_capture_ns},
    {"sim_second_cubic_10mbps", "ns/event", 0.75, wl_sim_second_cubic_10_ns},
    {"sim_second_cubic_100mbps", "ns/event", 0.75, wl_sim_second_cubic_100_ns},
    {"sim_second_cubic_recorded_100mbps", "ns/event", 0.75, wl_sim_second_cubic_recorded_100_ns},
    {"seed_sweep_12x4s", "ms", 0.50, wl_seed_sweep_ms},
    {"ppo_inference_h64", "ns/call", 0.75, wl_ppo_inference_ns},
    {"ppo_update_h64", "ms/update", 0.35, wl_ppo_update_ms},
    {"wide_forward_batch_2x512", "us/state", 0.75, wl_wide_forward_batch_us},
    {"telemetry_sample_1ms", "ms/run", 0.75, wl_telemetry_sample_1ms_ms},
    {"lte_trace_synthesis_60s", "ms/trace", 0.50, wl_lte_trace_ms},
    {"fleet_incast_100", "ns/event", 0.75, wl_fleet_incast_100_ns},
    {"fleet_health_100", "ns/event", 0.75, wl_fleet_health_100_ns},
    {"fleet_incast_1000", "ns/event", 0.75, wl_fleet_incast_1000_ns},
    {"fleet_incast_1000_soa", "ms/simsec", 0.75, wl_fleet_incast_1000_soa_ms},
    {"dctcp_incast_100", "ns/event", 0.75, wl_dctcp_incast_100_ns},
    {"policed_bbr_40mbps", "ns/event", 0.75, wl_policed_bbr_ns},
};

struct MetricResult {
  double median = 0;
  double stddev = 0;
};

MetricResult summarize_samples(std::vector<double> samples) {
  MetricResult r;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  r.median = n % 2 ? samples[n / 2]
                   : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  double mean = 0;
  for (double s : samples) mean += s;
  mean /= static_cast<double>(n);
  double var = 0;
  for (double s : samples) var += (s - mean) * (s - mean);
  r.stddev = n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0.0;
  return r;
}

struct Options {
  std::string record_path;
  std::string compare_path;
  std::string label = "local";
  std::string git_sha;
  int repeats = 5;
  double tolerance_override = 0;  // 0: use per-metric tolerance from baseline
  bool profile = false;
  bool deterministic = false;  // --deterministic: force the scalar kernels
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " (--record=PATH | --compare=PATH) [--label=NAME]\n"
               "       [--git-sha=SHA] [--repeats=N] [--tolerance=FRAC]\n"
               "       [--profile] [--deterministic]\n\n"
               "  --record    run the suite and write a libra-bench-v1 baseline\n"
               "  --compare   run the suite and diff against a recorded baseline;\n"
               "              exits 1 if any metric regresses past its tolerance\n"
               "  --tolerance override every per-metric tolerance with a\n"
               "              positive fraction (e.g. 0.1)\n"
               "  --repeats   samples per metric, at least 1 (median reported;\n"
               "              default 5)\n"
               "  --profile   enable the in-process profiler and print its\n"
               "              report after the suite\n"
               "  --deterministic\n"
               "              force the scalar kernel path (same as\n"
               "              LIBRA_SIMD=off) regardless of host ISA support\n";
  return 2;
}

std::string host_field(const char* v) { return v ? std::string(v) : std::string(); }

void write_baseline(const Options& opt,
                    const std::vector<MetricResult>& results,
                    const std::string& path) {
  utsname un{};
  uname(&un);
  std::string doc;
  JsonWriter w(doc);
  w.begin_object();
  w.key("schema").value("libra-bench-v1");
  w.key("label").value(opt.label);
  w.key("git_sha").value(opt.git_sha);
  w.key("host");
  w.begin_object();
  w.key("sysname").value(host_field(un.sysname));
  w.key("release").value(host_field(un.release));
  w.key("machine").value(host_field(un.machine));
  w.key("cores").value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  // Kernel ISA the suite actually ran with — the dispatch decision, not just
  // hardware capability — so cross-host comparisons stay interpretable.
  w.key("simd").value(simd::isa_name(simd::active()));
  w.end_object();
  w.key("repeats").value(static_cast<std::int64_t>(opt.repeats));
  w.key("metrics");
  w.begin_object();
  for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
    w.key(kMetrics[i].name);
    w.begin_object();
    w.key("median").value(results[i].median);
    w.key("stddev").value(results[i].stddev);
    w.key("unit").value(kMetrics[i].unit);
    w.key("tolerance").value(kMetrics[i].tolerance);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_baseline: cannot write " << path << "\n";
    std::exit(1);
  }
  out << doc << "\n";
  std::cout << "\nrecorded baseline -> " << path << "\n";
}

int compare_baseline(const Options& opt,
                     const std::vector<MetricResult>& results,
                     const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_baseline: cannot read baseline " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  JsonValue base;
  try {
    base = json_parse(buf.str());
  } catch (const std::exception& e) {
    std::cerr << "bench_baseline: malformed baseline: " << e.what() << "\n";
    return 1;
  }
  if (base.find("schema") == nullptr ||
      base.find("schema")->string_or("") != "libra-bench-v1") {
    std::cerr << "bench_baseline: " << path << " is not a libra-bench-v1 file\n";
    return 1;
  }
  const JsonValue* metrics = base.find("metrics");
  if (!metrics || !metrics->is_object()) {
    std::cerr << "bench_baseline: baseline has no metrics object\n";
    return 1;
  }
  // ISA mismatch is a warning, not a failure: comparing an AVX2 run against a
  // scalar-era baseline is exactly how a kernel speedup shows up, but the
  // reader should know the ratio mixes ISA and code changes.
  if (const JsonValue* host = base.find("host"); host && host->is_object()) {
    if (const JsonValue* isa = host->find("simd")) {
      const std::string base_isa = isa->string_or("");
      if (!base_isa.empty() && base_isa != simd::isa_name(simd::active()))
        std::printf(
            "\nwarning: kernel ISA differs from baseline (baseline=%s, this "
            "run=%s); timings are cross-ISA\n",
            base_isa.c_str(), simd::isa_name(simd::active()));
    }
  }

  std::printf("\n%-34s %12s %12s %7s %6s  %s\n", "metric", "baseline", "fresh",
              "ratio", "tol", "status");
  int regressions = 0, missing = 0;
  for (std::size_t i = 0; i < std::size(kMetrics); ++i) {
    const MetricDef& def = kMetrics[i];
    const JsonValue* m = metrics->find(def.name);
    if (!m || !m->is_object() || !m->find("median")) {
      std::printf("%-34s %12s %12.2f %7s %6s  %s\n", def.name, "-",
                  results[i].median, "-", "-", "MISSING (not in baseline)");
      ++missing;
      continue;
    }
    const double baseline = m->find("median")->number_or(0);
    double tol = opt.tolerance_override != 0
                     ? opt.tolerance_override
                     : (m->find("tolerance") ? m->find("tolerance")->number_or(def.tolerance)
                                             : def.tolerance);
    const double ratio = baseline > 0 ? results[i].median / baseline : 0;
    const bool regressed = baseline > 0 && results[i].median > baseline * (1.0 + tol);
    const bool improved = baseline > 0 && results[i].median < baseline * (1.0 - tol);
    const char* status = regressed ? "REGRESSED" : improved ? "ok (improved)" : "ok";
    if (regressed) ++regressions;
    std::printf("%-34s %12.2f %12.2f %7.3f %6.2f  %s\n", def.name, baseline,
                results[i].median, ratio, tol, status);
  }
  std::printf("\nbaseline: %s (label=%s sha=%s)\n", path.c_str(),
              base.find("label") ? base.find("label")->string_or("?").c_str() : "?",
              base.find("git_sha") ? base.find("git_sha")->string_or("?").c_str() : "?");
  if (missing > 0)
    std::printf("note: %d metric(s) absent from the baseline — re-record it\n", missing);
  if (regressions > 0) {
    std::printf("FAIL: %d metric(s) regressed past tolerance\n", regressions);
    return 1;
  }
  std::printf("PASS: all %zu metrics within tolerance\n", std::size(kMetrics));
  return 0;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a.rfind("--record=", 0) == 0) opt.record_path = std::string(a.substr(9));
    else if (a.rfind("--compare=", 0) == 0) opt.compare_path = std::string(a.substr(10));
    else if (a.rfind("--label=", 0) == 0) opt.label = std::string(a.substr(8));
    else if (a.rfind("--git-sha=", 0) == 0) opt.git_sha = std::string(a.substr(10));
    else if (a.rfind("--repeats=", 0) == 0) {
      if (!parse_int(argv[i] + 10, 1, std::numeric_limits<int>::max(), opt.repeats))
        return usage(argv[0]);
    } else if (a.rfind("--tolerance=", 0) == 0) {
      if (!parse_real(argv[i] + 12, 0, std::numeric_limits<double>::infinity(),
                      opt.tolerance_override) ||
          opt.tolerance_override <= 0)
        return usage(argv[0]);
    } else if (a == "--profile") opt.profile = true;
    else if (a == "--deterministic") opt.deterministic = true;
    else return usage(argv[0]);
  }
  if (opt.record_path.empty() == opt.compare_path.empty()) return usage(argv[0]);

  if (opt.deterministic) simd::force(simd::Isa::kScalar);
  if (opt.profile) Profiler::instance().enable();

  std::printf("libra bench suite: %zu metrics x %d repeats (simd=%s)\n",
              std::size(kMetrics), opt.repeats, simd::isa_name(simd::active()));
  std::vector<MetricResult> results;
  results.reserve(std::size(kMetrics));
  for (const MetricDef& def : kMetrics) {
    def.run();  // one warmup sample (caches, pool spin-up) discarded
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(opt.repeats));
    for (int r = 0; r < opt.repeats; ++r) samples.push_back(def.run());
    results.push_back(summarize_samples(samples));
    std::printf("  %-34s %12.2f %s (stddev %.2f)\n", def.name,
                results.back().median, def.unit, results.back().stddev);
    std::fflush(stdout);
  }

  int rc = 0;
  if (!opt.record_path.empty()) write_baseline(opt, results, opt.record_path);
  else rc = compare_baseline(opt, results, opt.compare_path);

  if (opt.profile) {
    Profiler::instance().disable();
    std::cout << "\n" << Profiler::instance().text_report();
  }
  return rc;
}

}  // namespace
}  // namespace libra

int main(int argc, char** argv) { return libra::run(argc, argv); }
