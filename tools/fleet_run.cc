// Fleet-scale scenario runner CLI.
//
// Runs one fleet topology (incast or parking lot) under the serial or the
// sharded engine and prints a deterministic JSON summary: every field is an
// exact function of the simulated run (wall time is reported separately on
// stderr), so `fleet_run --mode=serial ...` and `fleet_run --mode=sharded
// --threads=N ...` must emit byte-identical documents — check.sh diffs them.
//
//   fleet_run --topo=incast --flows=100 --cca=cubic --mode=sharded --threads=4
//   fleet_run --topo=parking_lot --hops=4 --flows=64 --duration=5 --churn
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "flag_parse.h"
#include "harness/fleet_scenario.h"
#include "harness/zoo.h"
#include "obs/json.h"

namespace libra {
namespace {

struct Options {
  std::string topo = "incast";
  std::string cca = "cubic";
  int flows = 100;
  int hops = 4;
  int long_flows = 4;
  double rate_mbps = 0;  // 0: topology default
  double duration_s = 10;
  double warmup_s = 1;
  std::string mode = "serial";
  std::size_t threads = 0;
  int sender_shards = 0;
  bool churn = false;
  std::uint64_t seed = 1;
  bool events_only = false;
  double stagger_ms = -1;  // <0: topology default
  std::int64_t buffer_bytes = 0;  // 0: topology default
  bool health = false;
  std::size_t record = 0;  // >0: black-box ring capacity (events)
  std::int64_t ecn_bytes = 0;      // >0: ECN marking threshold (+ ECT senders)
  double policer_rate_mbps = 0;    // >0: token-bucket policer on every hop
  std::int64_t policer_burst = 30 * 1000;
  bool policer_mark = false;       // policer CE-marks instead of dropping
  double policer_start_s = 0;
  double policer_stop_s = -1;      // <0: policer active to end of run
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--topo=incast|parking_lot] [--flows=N] [--hops=H]\n"
         "       [--long-flows=N] [--cca=NAME] [--rate=MBPS] [--duration=S]\n"
         "       [--warmup=S] [--mode=serial|sharded] [--threads=N]\n"
         "       [--sender-shards=N] [--churn] [--seed=N] [--events-only]\n"
         "       [--stagger=MS] [--buffer=BYTES] [--health]\n"
         "       [--record=EVENTS] [--ecn=BYTES] [--policer-rate=MBPS]\n"
         "       [--policer-burst=BYTES] [--policer-mark]\n"
         "       [--policer-start=S] [--policer-stop=S]\n\n"
         "Prints a deterministic JSON summary of the run on stdout (identical\n"
         "for serial and sharded modes at any thread count) and the\n"
         "host-dependent wall-clock stats on stderr.\n\n"
         "--health adds a \"health\" object: the windowed fleet timeline plus\n"
         "severity-ranked anomaly incidents (also mode-invariant).\n"
         "--record=N keeps a black-box ring of the last N trace events\n"
         "(bounded memory; serial mode only); ring stats go to stderr.\n"
         "A malformed or out-of-range value, or an unknown flag, topology,\n"
         "mode or CCA name, prints this message and exits 2.\n";
  return 2;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* key) -> const char* {
      std::size_t n = std::strlen(key);
      return arg.compare(0, n, key) == 0 ? arg.c_str() + n : nullptr;
    };
    bool ok = true;
    if (const char* v = value("--topo=")) {
      o.topo = v;
      ok = o.topo == "incast" || o.topo == "parking_lot";
    } else if (const char* v = value("--cca=")) {
      o.cca = v;
      const std::vector<std::string> names = CcaZoo::all_names();
      ok = std::find(names.begin(), names.end(), o.cca) != names.end();
    } else if (const char* v = value("--flows=")) {
      ok = parse_int(v, 1, kIntMax, o.flows);
    } else if (const char* v = value("--hops=")) {
      ok = parse_int(v, 1, kIntMax, o.hops);
    } else if (const char* v = value("--long-flows=")) {
      ok = parse_int(v, 0, kIntMax, o.long_flows);
    } else if (const char* v = value("--rate=")) {
      ok = parse_real(v, 0, kInf, o.rate_mbps) && o.rate_mbps > 0;
    } else if (const char* v = value("--duration=")) {
      ok = parse_real(v, 0, kInf, o.duration_s) && o.duration_s > 0;
    } else if (const char* v = value("--warmup=")) {
      ok = parse_real(v, 0, kInf, o.warmup_s);
    } else if (const char* v = value("--mode=")) {
      o.mode = v;
      ok = o.mode == "serial" || o.mode == "sharded";
    } else if (const char* v = value("--threads=")) {
      ok = parse_int<std::size_t>(v, 0, 4096, o.threads);
    } else if (const char* v = value("--sender-shards=")) {
      ok = parse_int(v, 0, kIntMax, o.sender_shards);
    } else if (const char* v = value("--seed=")) {
      ok = parse_int<std::uint64_t>(v, 0, ~std::uint64_t{0}, o.seed);
    } else if (const char* v = value("--stagger=")) {
      ok = parse_real(v, 0, kInf, o.stagger_ms);
    } else if (const char* v = value("--buffer=")) {
      ok = parse_int<std::int64_t>(v, 1, kI64Max, o.buffer_bytes);
    } else if (const char* v = value("--record=")) {
      ok = parse_int<std::size_t>(v, 0, std::size_t{1} << 32, o.record);
    } else if (const char* v = value("--ecn=")) {
      ok = parse_int<std::int64_t>(v, 0, kI64Max, o.ecn_bytes);
    } else if (const char* v = value("--policer-rate=")) {
      ok = parse_real(v, 0, kInf, o.policer_rate_mbps);
    } else if (const char* v = value("--policer-burst=")) {
      ok = parse_int<std::int64_t>(v, 1, kI64Max, o.policer_burst);
    } else if (const char* v = value("--policer-start=")) {
      ok = parse_real(v, 0, kInf, o.policer_start_s);
    } else if (const char* v = value("--policer-stop=")) {
      ok = parse_real(v, -kInf, kInf, o.policer_stop_s);
    } else if (arg == "--policer-mark") {
      o.policer_mark = true;
    } else if (arg == "--health") {
      o.health = true;
    } else if (arg == "--churn") {
      o.churn = true;
    } else if (arg == "--events-only") {
      o.events_only = true;
    } else {
      return false;
    }
    if (!ok) {
      std::cerr << "bad value: " << arg << "\n";
      return false;
    }
  }
  return true;
}

int run(const Options& o) {
  FleetSpec spec;
  if (o.topo == "incast") {
    spec = incast_fleet(o.flows, o.rate_mbps > 0 ? o.rate_mbps : 960.0);
  } else {
    const int cross = std::max(1, o.flows / o.hops);
    spec = parking_lot_fleet(o.hops, cross, o.long_flows,
                             o.rate_mbps > 0 ? o.rate_mbps : 96.0);
  }
  spec.duration = static_cast<SimDuration>(o.duration_s * 1e6);
  spec.warmup = static_cast<SimDuration>(o.warmup_s * 1e6);
  if (o.stagger_ms >= 0)
    spec.stagger = static_cast<SimDuration>(o.stagger_ms * 1e3);
  spec.sender_shards = o.sender_shards;
  spec.churn.enabled = o.churn;
  if (o.buffer_bytes > 0) spec.buffer_bytes = o.buffer_bytes;
  spec.ecn_threshold_bytes = o.ecn_bytes;
  spec.policer_rate_mbps = o.policer_rate_mbps;
  spec.policer_burst_bytes = o.policer_burst;
  spec.policer_marks = o.policer_mark;
  spec.policer_start = static_cast<SimTime>(o.policer_start_s * 1e6);
  spec.policer_stop = o.policer_stop_s < 0
                          ? kSimTimeMax
                          : static_cast<SimTime>(o.policer_stop_s * 1e6);

  FleetRunOptions run_opts;
  if (o.mode == "sharded") run_opts.mode = FleetMode::kSharded;
  run_opts.threads = o.threads;
  run_opts.health = o.health;
  run_opts.record_capacity = o.record;

  CcaZoo zoo;
  FleetObsResult obs;
  const FleetSummary s =
      run_fleet(spec, zoo.factory(o.cca), o.seed, run_opts, &obs);

  if (o.events_only) {
    std::printf("%llu\n", static_cast<unsigned long long>(s.events_processed));
  } else {
    std::string out;
    JsonWriter w(out);
    w.begin_object();
    w.key("scenario").value(spec.name);
    w.key("cca").value(o.cca);
    w.key("seed").value(o.seed);
    w.key("flows").value(static_cast<std::uint64_t>(s.flows.size()));
    w.key("sim_time_s").value(s.sim_time_s);
    w.key("window_s").value(s.window_s);
    w.key("events").value(s.events_processed);
    w.key("total_throughput_bps").value(s.total_throughput_bps);
    w.key("avg_delay_ms").value(s.avg_delay_ms);
    w.key("jain_fairness").value(s.jain_fairness);
    w.key("hop_utilization");
    w.begin_array();
    for (double u : s.hop_utilization) w.value(u);
    w.end_array();
    w.key("per_flow");
    w.begin_array();
    for (const FleetFlowSummary& f : s.flows) {
      w.begin_object();
      w.key("throughput_bps").value(f.throughput_bps);
      w.key("avg_rtt_ms").value(f.avg_rtt_ms);
      w.key("loss_rate").value(f.loss_rate);
      w.key("completion_s").value(f.completion_s);
      w.end_object();
    }
    w.end_array();
    if (o.health) {
      w.key("health");
      write_health_json(w, obs.health);
    }
    w.end_object();
    std::printf("%s\n", out.c_str());
  }
  std::fprintf(stderr, "wall_s=%.3f events_per_wall_s=%.0f mode=%s threads=%zu\n",
               s.wall_time_s, s.events_per_wall_s(), o.mode.c_str(), o.threads);
  // Per-shard event counts + imbalance (max/mean): the data sharded-speedup
  // investigations need to tell skew from overhead. Deterministic, but kept
  // on stderr with the wall stats so stdout stays the byte-diffed summary.
  if (!obs.shard_events.empty()) {
    std::uint64_t total = 0, max_ev = 0;
    std::string list;
    for (std::size_t i = 0; i < obs.shard_events.size(); ++i) {
      const std::uint64_t n = obs.shard_events[i];
      total += n;
      if (n > max_ev) max_ev = n;
      if (i) list += ',';
      list += std::to_string(n);
    }
    const double mean = static_cast<double>(total) /
                        static_cast<double>(obs.shard_events.size());
    std::fprintf(stderr, "shards=%zu shard_events=%s imbalance=%.3f\n",
                 obs.shard_events.size(), list.c_str(),
                 mean > 0 ? static_cast<double>(max_ev) / mean : 0.0);
  }
  if (o.record > 0) {
    std::fprintf(stderr,
                 "trace recorded=%llu overwritten=%llu buffered=%llu cap=%zu\n",
                 static_cast<unsigned long long>(obs.trace_recorded),
                 static_cast<unsigned long long>(obs.trace_overwritten),
                 static_cast<unsigned long long>(obs.trace_buffered), o.record);
  }
  return 0;
}

}  // namespace
}  // namespace libra

int main(int argc, char** argv) {
  libra::Options opts;
  if (!libra::parse_args(argc, argv, opts)) return libra::usage(argv[0]);
  return libra::run(opts);
}
