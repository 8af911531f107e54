#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "alloc_counter.h"
#include "classic/bbr.h"
#include "classic/cubic.h"
#include "core/libra.h"
#include "harness/fleet_scenario.h"
#include "harness/parallel.h"
#include "harness/scenario.h"
#include "harness/trainer.h"
#include "learned/libra_rl.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "rl/simd.h"
#include "sim/fleet.h"
#include "stats.h"
#include "timed_cca.h"

namespace perfbench {
namespace {

/// Per-run seeds derived from --seed (splitmix64 of seed and index).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool utilization_ok(double u) { return std::isfinite(u) && u > 0 && u <= 1.05; }

std::uint64_t ns_between(double start_s, double end_s) {
  return static_cast<std::uint64_t>(std::llround(std::max(0.0, end_s - start_s) * 1e9));
}

std::uint64_t counter_value(const libra::MetricsRegistry& metrics, const char* name) {
  const auto& counters = metrics.counters();
  auto it = counters.find(name);
  return it == counters.end() ? 0 : static_cast<std::uint64_t>(it->second.value());
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || !std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; }))
    return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

// ---- paper ----------------------------------------------------------------

constexpr const char* kPaperCcas[] = {"cubic", "bbr", "vivace", "orca", "c-libra", "b-libra"};

class PaperWorkload final : public Workload {
 public:
  PaperWorkload(std::uint64_t seed, libra::ThreadPool& pool, Scale scale)
      : pool_(pool),
        seeds_(scale == Scale::kFull ? 3 : 1),
        duration_s_(scale == Scale::kFull ? 30 : 3),
        train_episodes_(scale == Scale::kFull ? 16 : 2) {
    scenarios_ = libra::wired_set();
    for (libra::Scenario& s : libra::cellular_set()) scenarios_.push_back(std::move(s));
    for (libra::Scenario& s : scenarios_) s.duration = libra::seconds(duration_s_);
    for (int k = 0; k < seeds_; ++k) {
      const std::uint64_t run_seed = mix_seed(seed, static_cast<std::uint64_t>(k));
      for (std::size_t s = 0; s < scenarios_.size(); ++s)
        for (std::size_t c = 0; c < std::size(kPaperCcas); ++c)
          plan_.push_back({s, c, run_seed});
    }
  }

  std::string config_json() const override {
    std::string out;
    libra::JsonWriter w(out);
    w.begin_object();
    w.key("ops").value(static_cast<std::uint64_t>(plan_.size()));
    w.key("scenarios").begin_array();
    for (const libra::Scenario& s : scenarios_) w.value(s.name);
    w.end_array();
    w.key("ccas").begin_array();
    for (const char* c : kPaperCcas) w.value(c);
    w.end_array();
    w.key("seeds").value(seeds_);
    w.key("duration_s").value(duration_s_);
    w.key("train_episodes").value(train_episodes_);
    w.key("brain_families").begin_array().value("libra-rl").value("orca").end_array();
    w.end_object();
    return out;
  }

  // Trains the libra-rl and orca brains from the zoo's fixed seed (no brain
  // cache) and builds every CCA factory.
  void setup() override {
    libra::ZooConfig zc;
    zc.brain_dir = "";
    zc.train_episodes = train_episodes_;
    zc.train_telemetry = false;
    auto zoo = std::make_unique<libra::CcaZoo>(zc);
    std::vector<libra::CcaFactory> factories;
    for (const char* name : kPaperCcas) factories.push_back(zoo->factory(name));
    Digest d;
    for (const char* family : {"libra-rl", "orca"}) {
      const std::string text = serialize_brain(*zoo->brain(family));
      if (text.find("nan") != std::string::npos) consistent_ = false;
      d.add(text);
    }
    if (brain_digest_ && *brain_digest_ != d.value()) consistent_ = false;
    brain_digest_ = d.value();
    factories_ = std::move(factories);
    zoo_ = std::move(zoo);
  }

  bool setup_consistent() const override { return consistent_; }

  BatchResult run_batch(bool traced) override {
    struct Slot {
      Interval iv;
      std::uint32_t span = 0;
      std::uint64_t events = 0, acks = 0, losses = 0, drops = 0;
      std::uint64_t cycles = 0, rl_wins = 0, infer_calls = 0, infer_ns = 0;
    };
    const std::size_t n = plan_.size();
    std::vector<Slot> slots(n);
    std::vector<libra::RunRequest> requests;
    requests.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Op& op = plan_[i];
      Slot& slot = slots[i];
      const libra::CcaFactory& base = factories_.at(op.cca);
      // The op starts when run_scenario asks for its controller and ends in
      // the inspect hook, both on the worker thread that runs it.
      libra::CcaFactory factory = [&slot, &base, traced]() -> std::unique_ptr<libra::CongestionControl> {
        slot.iv.thread = thread_index();
        slot.iv.start_s = now_s();
        if (traced) slot.span = libra::Profiler::thread_profile().enter("bench.op");
        std::unique_ptr<libra::CongestionControl> cca = base();
        if (traced) return std::make_unique<TimedCca>(std::move(cca));
        return cca;
      };
      libra::RunRequest req = libra::RunRequest::single(scenarios_[op.scenario],
                                                        std::move(factory), op.seed);
      req.inspect = [&slot, traced](const libra::Network& net) {
        const libra::MetricsRegistry& m = net.metrics();
        slot.events = counter_value(m, "sim.events_processed");
        slot.acks = counter_value(m, "flow.packets_acked");
        slot.losses = counter_value(m, "flow.packets_lost");
        slot.drops = counter_value(m, "link.drops_overflow") + counter_value(m, "link.drops_wire");
        const auto* libra_cca =
            dynamic_cast<const libra::Libra*>(&unwrap(net.flow(0).sender().cca()));
        if (libra_cca) {
          slot.cycles = static_cast<std::uint64_t>(libra_cca->decision_counts().total());
          slot.rl_wins = static_cast<std::uint64_t>(libra_cca->decision_counts().rl);
          slot.infer_calls = static_cast<std::uint64_t>(libra_cca->rl_overhead().invocations());
          slot.infer_ns = static_cast<std::uint64_t>(libra_cca->rl_overhead().busy_nanoseconds());
        }
        slot.iv.end_s = now_s();
        if (traced)
          libra::Profiler::thread_profile().exit(slot.span, ns_between(slot.iv.start_s, slot.iv.end_s));
      };
      requests.push_back(std::move(req));
    }

    BatchResult r;
    std::vector<libra::RunSummary> summaries;
    bool threw = false;
    const std::uint64_t allocs0 = allocation_count();
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    try {
      summaries = libra::run_many(requests, pool_);
    } catch (const std::exception&) {
      threw = true;
    }
    const double t1 = now_s();
    r.cpu_s = process_cpu_s() - cpu0;
    r.counters["allocs"] = allocation_count() - allocs0;
    r.wall_s = t1 - t0;

    std::uint64_t infer_ns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Slot& slot = slots[i];
      r.ops.push_back(slot.iv);
      Digest d;
      bool ok = !threw && i < summaries.size() && !summaries[i].flows.empty();
      if (ok) {
        const libra::RunSummary& s = summaries[i];
        d.add(s.link_utilization).add(s.avg_delay_ms).add(s.total_throughput_bps).add(s.sim_time_s);
        ok = utilization_ok(s.link_utilization) && std::isfinite(s.avg_delay_ms) &&
             std::isfinite(s.total_throughput_bps);
        for (const libra::FlowSummary& f : s.flows) {
          d.add(f.throughput_bps).add(f.avg_rtt_ms).add(f.loss_rate);
          ok = ok && std::isfinite(f.throughput_bps) && std::isfinite(f.avg_rtt_ms) &&
               std::isfinite(f.loss_rate);
        }
      }
      d.add(slot.events).add(slot.acks).add(slot.losses).add(slot.drops).add(slot.cycles).add(slot.rl_wins);
      r.op_digest.push_back(d.value());
      r.op_ok.push_back(ok);
      r.counters["events"] += slot.events;
      r.counters["acks"] += slot.acks;
      r.counters["losses"] += slot.losses;
      r.counters["drops"] += slot.drops;
      r.counters["libra_cycles"] += slot.cycles;
      r.counters["libra_rl_wins"] += slot.rl_wins;
      r.counters["libra_infer_calls"] += slot.infer_calls;
      infer_ns += slot.infer_ns;
    }
    r.layer["libra_infer_ns"] = static_cast<double>(infer_ns);
    const PoolUse use = pool_use(r.ops, t0, t1, static_cast<int>(pool_.thread_count()));
    r.layer["parallel_busy_s"] = use.busy_s;
    r.layer["parallel_capacity_s"] = use.capacity_s;
    r.layer["parallel_tail_s"] = use.tail_s;
    r.layer["parallel_fanouts"] = 1;
    return r;
  }

  double batch_flow_seconds() const override {
    return static_cast<double>(plan_.size()) * duration_s_;
  }

  std::size_t threads() const override { return pool_.thread_count(); }

 private:
  struct Op {
    std::size_t scenario = 0;
    std::size_t cca = 0;
    std::uint64_t seed = 0;
  };

  libra::ThreadPool& pool_;
  const int seeds_;          // run seeds per (scenario, CCA)
  const double duration_s_;  // simulated seconds per run
  const int train_episodes_; // set-up training budget per brain
  std::vector<libra::Scenario> scenarios_;
  std::vector<Op> plan_;
  std::unique_ptr<libra::CcaZoo> zoo_;
  std::vector<libra::CcaFactory> factories_;
  std::optional<std::uint64_t> brain_digest_;
  bool consistent_ = true;
};

// ---- train ----------------------------------------------------------------

// CcaZoo's libra-rl training: ZooConfig's rollout_round, hidden_width and
// seed, and the seed the zoo gives its Trainer.
constexpr int kRoundSize = 8;
constexpr std::size_t kHidden = 64;
constexpr std::uint64_t kBrainSeed = 42;
constexpr std::uint64_t kTrainerSeed = 42 ^ 0x5EED;

class TrainWorkload final : public Workload {
 public:
  TrainWorkload(libra::ThreadPool& pool, Scale scale)
      : pool_(pool), rounds_(scale == Scale::kFull ? 100 : 3) {}

  std::string config_json() const override {
    std::string out;
    libra::JsonWriter w(out);
    w.begin_object();
    w.key("ops").value(rounds_);
    w.key("round_size").value(kRoundSize);
    w.key("hidden").begin_array().value(static_cast<std::uint64_t>(kHidden))
        .value(static_cast<std::uint64_t>(kHidden)).end_array();
    w.key("brain").value("libra-rl");
    w.key("brain_seed").value(kBrainSeed);
    w.key("trainer_seed").value(kTrainerSeed);
    w.key("episode_s").value(libra::to_seconds(ranges_.episode_length));
    w.end_object();
    return out;
  }

  // What a user pays before the first round: the brain and the trainer.
  void setup() override {
    const libra::RlCcaConfig cfg = libra::libra_rl_config();
    brain_ = std::make_shared<libra::RlBrain>(
        libra::make_ppo_config(cfg, kBrainSeed, {kHidden, kHidden}),
        libra::feature_frame_size(cfg.features));
    trainer_ = std::make_unique<libra::Trainer>(ranges_, kTrainerSeed);
  }

  BatchResult run_batch(bool traced) override {
    // Every batch trains from the same fresh state, so repeats must match.
    if (!brain_) setup();
    std::shared_ptr<libra::RlBrain> brain = std::move(brain_);
    std::unique_ptr<libra::Trainer> trainer = std::move(trainer_);

    IntervalLog episodes;
    libra::BrainBoundFactory factory;
    if (traced) {
      factory = [&episodes](const std::shared_ptr<libra::RlBrain>& b) -> std::unique_ptr<libra::CongestionControl> {
        libra::RlCcaConfig cfg = libra::libra_rl_config();
        cfg.training = true;
        return std::make_unique<TimedRlCca>(cfg, b, episodes);
      };
    } else {
      factory = [](const std::shared_ptr<libra::RlBrain>& b) -> std::unique_ptr<libra::CongestionControl> {
        return libra::make_libra_rl(b, /*training=*/true);
      };
    }

    BatchResult r;
    PoolUse total_use;
    bool threw = false;
    const int updates0 = brain->agent.update_count();
    const std::uint64_t allocs0 = allocation_count();
    const double cpu0 = process_cpu_s();
    for (int round = 0; round < rounds_; ++round) {
      Interval iv;
      iv.thread = thread_index();
      std::vector<libra::EpisodeStats> stats;
      iv.start_s = now_s();
      try {
        libra::ProfScope span("bench.op");
        stats = trainer->train_parallel(factory, brain, kRoundSize, pool_, kRoundSize);
      } catch (const std::exception&) {
        threw = true;
      }
      iv.end_s = now_s();
      r.ops.push_back(iv);
      if (traced) {
        const PoolUse use = pool_use(episodes.take(), iv.start_s, iv.end_s,
                                     static_cast<int>(pool_.thread_count()));
        total_use.busy_s += use.busy_s;
        total_use.capacity_s += use.capacity_s;
        total_use.tail_s += use.tail_s;
      }
      Digest d;
      bool ok = !threw && static_cast<int>(stats.size()) == kRoundSize;
      for (const libra::EpisodeStats& s : stats) {
        d.add(s.reward).add(static_cast<std::uint64_t>(s.steps)).add(s.throughput_bps)
            .add(s.avg_rtt_ms).add(s.loss_rate).add(s.link_utilization);
        ok = ok && utilization_ok(s.link_utilization) && std::isfinite(s.reward) &&
             std::isfinite(s.avg_rtt_ms) && std::isfinite(s.loss_rate);
      }
      r.op_digest.push_back(d.value());
      r.op_ok.push_back(ok);
      if (threw) break;
    }
    r.cpu_s = process_cpu_s() - cpu0;
    r.counters["allocs"] = allocation_count() - allocs0;
    r.wall_s = r.ops.back().end_s - r.ops.front().start_s;
    r.counters["ppo_updates"] = static_cast<std::uint64_t>(brain->agent.update_count() - updates0);
    r.counters["episodes"] = static_cast<std::uint64_t>(rounds_ * kRoundSize);

    // The trained weights belong to the last op: a NaN or a changed weight
    // anywhere fails it.
    const std::string weights = serialize_brain(*brain);
    Digest d;
    d.add(r.op_digest.back()).add(weights);
    r.op_digest.back() = d.value();
    if (weights.find("nan") != std::string::npos) r.op_ok.back() = false;

    if (traced) {
      r.layer["parallel_busy_s"] = total_use.busy_s;
      r.layer["parallel_capacity_s"] = total_use.capacity_s;
      r.layer["parallel_tail_s"] = total_use.tail_s;
      r.layer["parallel_fanouts"] = static_cast<double>(r.ops.size());
    }
    return r;
  }

  double batch_flow_seconds() const override {
    return static_cast<double>(rounds_ * kRoundSize) * libra::to_seconds(ranges_.episode_length);
  }

  std::size_t threads() const override { return pool_.thread_count(); }

 private:
  libra::TrainEnvRanges ranges_;  // zoo defaults: the paper's training env
  libra::ThreadPool& pool_;
  const int rounds_;  // ops per batch
  std::shared_ptr<libra::RlBrain> brain_;
  std::unique_ptr<libra::Trainer> trainer_;
};

// ---- fleet ----------------------------------------------------------------

// 4 hops, 4 long flows, starts staggered 1 ms apart, 1 s warmup. The full
// batch has 250 cross flows per hop at 960 Mbps; the smoke batch keeps each
// flow's share of rate and buffer with a fifth of the flows.
constexpr int kFleetHops = 4;
constexpr int kFleetLongFlows = 4;
constexpr double kFleetStaggerS = 1e-3;
constexpr double kFleetWarmupS = 1;

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(std::uint64_t seed, Scale scale)
      : seed_(seed), duration_s_(scale == Scale::kFull ? 3 : 2), ops_(scale == Scale::kFull ? 3 : 2) {
    const bool full = scale == Scale::kFull;
    spec_ = libra::parking_lot_fleet(kFleetHops, full ? 250 : 50, kFleetLongFlows, full ? 960 : 192);
    spec_.buffer_bytes = full ? 1'500'000 : 300'000;
    spec_.stagger = libra::seconds(kFleetStaggerS);
    spec_.duration = libra::seconds(duration_s_);
    spec_.warmup = libra::seconds(kFleetWarmupS);
    run_.mode = libra::FleetMode::kSharded;
    run_.threads = fleet_threads() == 1 ? 1 : fleet_threads() - 1;
    plans_ = libra::plan_fleet_flows(spec_, seed_);
  }

  std::string config_json() const override {
    std::string out;
    libra::JsonWriter w(out);
    w.begin_object();
    w.key("ops").value(ops_);
    w.key("topology").value(spec_.name);
    w.key("hops").value(kFleetHops);
    w.key("flows").value(static_cast<std::uint64_t>(plans_.size()));
    w.key("rate_mbps").value(spec_.hop_rate_mbps);
    w.key("buffer_bytes").value(spec_.buffer_bytes);
    w.key("stagger_ms").value(kFleetStaggerS * 1e3);
    w.key("duration_s").value(duration_s_);
    w.key("warmup_s").value(kFleetWarmupS);
    w.key("ccas").begin_array().value("cubic").value("bbr").end_array();
    w.key("engine").value("sharded");
    w.key("engine_pool").value(static_cast<std::uint64_t>(run_.threads));
    w.end_object();
    return out;
  }

  // Building the network: plan, hops, and one sender + controller per flow.
  void setup() override { build(/*traced=*/false); }

  BatchResult run_batch(bool traced) override {
    BatchResult r;
    double cpu_s = 0;
    std::uint64_t allocs = 0;
    for (int op = 0; op < ops_; ++op) {
      std::unique_ptr<libra::FleetNetwork> net = build(traced);
      Interval iv;
      iv.thread = thread_index();
      bool ok = true;
      const std::uint64_t allocs0 = allocation_count();
      const double cpu0 = process_cpu_s();
      iv.start_s = now_s();
      try {
        libra::ProfScope span("bench.op");
        net->run();
      } catch (const std::exception&) {
        ok = false;
      }
      iv.end_s = now_s();
      cpu_s += process_cpu_s() - cpu0;
      allocs += allocation_count() - allocs0;
      r.ops.push_back(iv);

      Digest d;
      std::uint64_t acks = 0, losses = 0, drops = 0;
      if (ok) {
        const libra::FleetSummary s = net->summarize();
        d.add(s.sim_time_s).add(s.window_s).add(s.total_throughput_bps).add(s.avg_delay_ms)
            .add(s.jain_fairness).add(s.events_processed);
        for (double u : s.hop_utilization) {
          d.add(u);
          ok = ok && utilization_ok(u);
        }
        for (const libra::FleetFlowSummary& f : s.flows) {
          d.add(f.throughput_bps).add(f.avg_rtt_ms).add(f.loss_rate).add(f.completion_s);
          // Every flow is long-lived and backlogged, so every one must move bytes.
          ok = ok && std::isfinite(f.throughput_bps) && f.throughput_bps > 0 &&
               std::isfinite(f.avg_rtt_ms) && std::isfinite(f.loss_rate);
        }
        for (int f = 0; f < net->flow_count(); ++f) {
          acks += static_cast<std::uint64_t>(net->sender(f).packets_acked());
          losses += static_cast<std::uint64_t>(net->sender(f).packets_lost());
        }
        for (int h = 0; h < net->hop_count(); ++h)
          drops += static_cast<std::uint64_t>(net->hop(h).drops_overflow() + net->hop(h).drops_wire());
        const std::vector<std::uint64_t> shard_events = net->shard_event_counts();
        std::uint64_t max_events = 0;
        for (std::uint64_t e : shard_events) max_events = std::max(max_events, e);
        d.add(acks).add(losses).add(drops);
        r.counters["events"] += s.events_processed;
        r.counters["acks"] += acks;
        r.counters["losses"] += losses;
        r.counters["drops"] += drops;
        r.counters["shards"] = shard_events.size();
        r.counters["shard_events_max"] += max_events;
      }
      r.op_digest.push_back(d.value());
      r.op_ok.push_back(ok);
    }
    // Ops are sequential; the batch spans their run() calls only, not the
    // network builds between them (those are set-up).
    r.wall_s = 0;
    for (const Interval& iv : r.ops) r.wall_s += iv.end_s - iv.start_s;
    r.cpu_s = cpu_s;
    r.counters["allocs"] = allocs;
    r.counters["ops"] = static_cast<std::uint64_t>(ops_);
    r.layer["fleet_participants"] = static_cast<double>(fleet_threads());
    return r;
  }

  double batch_flow_seconds() const override {
    double flow_s = 0;
    for (const libra::FleetFlowPlan& p : plans_)
      flow_s += duration_s_ - libra::to_seconds(p.start);
    return flow_s * ops_;
  }

  std::size_t threads() const override { return fleet_threads(); }

 private:
  std::unique_ptr<libra::FleetNetwork> build(bool traced) const {
    auto net = std::make_unique<libra::FleetNetwork>(libra::fleet_links(spec_),
                                                     libra::fleet_options(spec_, seed_, run_));
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      libra::FleetFlowDef def;
      // Alternating: cubic skips the per-tick scan, bbr needs it.
      if (i % 2 == 0) {
        def.cca = std::make_unique<libra::Cubic>();
      } else {
        def.cca = std::make_unique<libra::Bbr>();
      }
      if (traced) def.cca = std::make_unique<TimedCca>(std::move(def.cca));
      def.start = plans_[i].start;
      def.stop = plans_[i].stop;
      def.byte_budget = plans_[i].byte_budget;
      def.enter_hop = plans_[i].enter_hop;
      def.exit_hop = plans_[i].exit_hop;
      net->add_flow(std::move(def));
    }
    return net;
  }

  std::uint64_t seed_;
  const double duration_s_;
  const int ops_;  // fleet runs per batch
  libra::FleetSpec spec_;
  libra::FleetRunOptions run_;
  std::vector<libra::FleetFlowPlan> plans_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string counters_json(const BatchResult& batch) {
  std::string out;
  libra::JsonWriter w(out);
  w.begin_object();
  for (const auto& [name, value] : batch.counters) w.key(name).value(value);
  Digest d;
  for (std::uint64_t v : batch.op_digest) d.add(v);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(d.value()));
  w.key("digest").value(hex);
  w.end_object();
  return out;
}

/// Counts ops of `batch` that failed their checks or do not repeat `first`.
/// Allocation counts are left out of the comparison: the first batch of a
/// process pays one-time allocations and a traced batch allocates profiler
/// nodes.
std::uint64_t failed_ops(const BatchResult& batch, const BatchResult& first) {
  auto work = [](std::map<std::string, std::uint64_t> counters) {
    counters.erase("allocs");
    return counters;
  };
  const bool same_work = work(batch.counters) == work(first.counters);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < batch.op_ok.size(); ++i) {
    const bool repeats = same_work && i < first.op_digest.size() &&
                         batch.op_digest[i] == first.op_digest[i];
    if (!batch.op_ok[i] || !repeats) ++failed;
  }
  return failed;
}

}  // namespace

// ---- public ---------------------------------------------------------------

std::size_t pool_size() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 1 ? 1 : 2;
}

std::size_t fleet_threads() { return std::thread::hardware_concurrency() >= 3 ? 3 : 1; }

std::string usage(const char* argv0) {
  return std::string("usage: ") + argv0 +
         " --workload paper|train|fleet --seed N --seconds S [--trace 0|1]"
         " [--source ID]\n"
         "Runs one benchmark workload and prints, as its last line, one JSON\n"
         "object {correct, attempted, failed, metrics}: end-to-end metrics\n"
         "with --trace 0, per-layer metrics with --trace 1.\n";
}

std::string parse_options(int argc, const char* const* argv, Options& opts) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string key = arg, value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      value = argv[++i];
    } else {
      return "missing value for " + arg;
    }
    if (key == "--workload") {
      if (value != "paper" && value != "train" && value != "fleet")
        return "unknown workload '" + value + "'";
      opts.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      if (!parse_u64(value, opts.seed)) return "--seed needs an unsigned integer";
      have_seed = true;
    } else if (key == "--seconds") {
      std::uint64_t s = 0;
      if (!parse_u64(value, s) || s < 1 || s > 3600)
        return "--seconds needs an integer in [1, 3600]";
      opts.seconds = static_cast<int>(s);
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return "--trace needs 0 or 1";
      opts.trace = value == "1";
    } else if (key == "--source") {
      if (value.empty() || value.size() > 200) return "--source needs 1-200 characters";
      opts.source = value;
    } else {
      return "unknown flag " + key;
    }
  }
  if (!have_workload) return "--workload is required";
  if (!have_seed) return "--seed is required";
  if (!have_seconds) return "--seconds is required";
  return "";
}

std::unique_ptr<Workload> make_paper(std::uint64_t seed, libra::ThreadPool& pool, Scale scale) {
  return std::make_unique<PaperWorkload>(seed, pool, scale);
}

std::unique_ptr<Workload> make_train(libra::ThreadPool& pool, Scale scale) {
  return std::make_unique<TrainWorkload>(pool, scale);
}

std::unique_ptr<Workload> make_fleet(std::uint64_t seed, Scale scale) {
  return std::make_unique<FleetWorkload>(seed, scale);
}

std::string serialize_brain(const libra::RlBrain& brain) {
  std::ostringstream out;
  brain.agent.save(out);
  brain.normalizer.save(out);
  return out.str();
}

std::vector<Metric> layer_metrics(const SpanTable& spans, const BatchResult& plain,
                                  const BatchResult& traced) {
  auto counter = [&plain](const char* name) -> double {
    auto it = plain.counters.find(name);
    return it == plain.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto layer = [](const BatchResult& b, const char* name) -> double {
    auto it = b.layer.find(name);
    return it == b.layer.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  // Corrected self time per call, in ns.
  auto self_ns = [&](const char* name) {
    const SpanTable::Entry e = spans.get(name);
    return ratio(std::max(0.0, e.self_ns), static_cast<double>(e.count));
  };
  auto calls = [&](const char* name) { return static_cast<double>(spans.get(name).count); };
  auto total_ns = [&](const char* name) { return std::max(0.0, spans.get(name).total_ns); };

  const double events = calls("sim.event");
  const double updates = counter("ppo_updates");
  const double cycles = counter("libra_cycles");

  // Shard barrier: the share of the fleet engine's thread time inside the
  // lookahead windows that no shard was running.
  double barrier = 0;
  if (calls("fleet.run") > 0) {
    const double window_ns = total_ns("fleet.run") - total_ns("fleet.merge");
    barrier = 1.0 - ratio(total_ns("fleet.shard"), layer(traced, "fleet_participants") * window_ns);
  }
  // Busiest shard's events over the mean shard's (fleet only).
  const double imbalance = ratio(counter("shard_events_max") * counter("shards"), counter("events"));

  // Pool use: from whichever batch measured it (untraced run_many ops for
  // paper; traced episode lifetimes for train).
  const BatchResult& pooled = plain.layer.count("parallel_busy_s") ? plain : traced;
  const double busy = ratio(layer(pooled, "parallel_busy_s"), layer(pooled, "parallel_capacity_s"));
  const double tail_ms =
      ratio(layer(pooled, "parallel_tail_s") * 1e3, layer(pooled, "parallel_fanouts"));

  const double round_ns = total_ns("train.round");

  return {
      {"sim.events", events, "count"},
      {"sim.event_ns", self_ns("sim.event"), "ns"},
      {"sim.allocs_per_event", ratio(counter("allocs"), events), "allocs/event"},
      {"sim.sender.acks", calls("sender.ack"), "count"},
      {"sim.sender.losses", calls("cca.loss"), "count"},
      {"sim.link.drops", counter("drops"), "count"},
      {"sim.sender.ack_ns", self_ns("sender.ack"), "ns"},
      {"sim.sender.send_ns", self_ns("sender.send"), "ns"},
      {"sim.link.enqueue_ns", self_ns("link.enqueue"), "ns"},
      {"sim.fleet.scan_ns", self_ns("fleet.scan"), "ns"},
      {"sim.fleet.merge_ns", self_ns("fleet.merge"), "ns"},
      {"sim.fleet.barrier_wait_frac", std::max(0.0, barrier), "ratio"},
      {"sim.fleet.shard_imbalance", imbalance, "ratio"},
      {"cca.ack_ns", self_ns("cca.ack"), "ns"},
      {"cca.ack_calls", calls("cca.ack"), "count"},
      {"cca.tick_ns", self_ns("cca.tick"), "ns"},
      {"cca.tick_calls", calls("cca.tick"), "count"},
      {"cca.loss_ns", self_ns("cca.loss"), "ns"},
      {"cca.sent_ns", self_ns("cca.sent"), "ns"},
      {"core.libra.cycles", cycles, "count"},
      {"core.libra.rl_win_frac", ratio(counter("libra_rl_wins"), cycles), "ratio"},
      {"core.libra.infer_ns", ratio(layer(plain, "libra_infer_ns"), counter("libra_infer_calls")), "ns"},
      {"core.libra.infer_calls", counter("libra_infer_calls"), "count"},
      {"rl.ppo.updates", updates, "count"},
      {"rl.ppo.update_ms", ratio(total_ns("ppo.update"), calls("ppo.update")) * 1e-6, "ms"},
      {"rl.ppo.forward_ms", ratio(total_ns("ppo.forward"), calls("ppo.update")) * 1e-6, "ms"},
      {"rl.ppo.backward_ms", ratio(total_ns("ppo.backward"), calls("ppo.update")) * 1e-6, "ms"},
      {"rl.ppo.adam_ms", ratio(total_ns("ppo.adam"), calls("ppo.update")) * 1e-6, "ms"},
      {"harness.trainer.reduce_ms", ratio(total_ns("train.reduce"), calls("train.reduce")) * 1e-6, "ms"},
      {"harness.trainer.rollout_frac", round_ns > 0 ? 1.0 - total_ns("train.reduce") / round_ns : 0.0, "ratio"},
      {"harness.parallel.busy_frac", busy, "ratio"},
      {"harness.parallel.tail_ms", tail_ms, "ms"},
      {"trace.overhead_frac", std::max(0.0, ratio(traced.cpu_s, plain.cpu_s) - 1.0), "ratio"},
      {"trace.unattributed_frac",
       ratio(std::max(0.0, spans.get("bench.op").self_ns), spans.recorded_ns()), "ratio"},
  };
}

Report run_benchmark(Workload& workload, const Options& opts) {
  Report report;

  // Set-up, several times: the median is setup_s, and every repeat must
  // rebuild identical state. Cheap set-ups repeat up to a second's worth,
  // for a steadier median.
  std::vector<double> setup_s;
  const double setup_begin = now_s();
  while (setup_s.size() < 3 || (setup_s.size() < 1000 && now_s() - setup_begin < 1.0)) {
    const double t0 = now_s();
    workload.setup();
    setup_s.push_back(now_s() - t0);
  }
  if (!workload.setup_consistent()) {
    report.correct = false;
    ++report.failed;
  }

  std::vector<BatchResult> batches;
  if (!opts.trace) {
    // Closed batches until the next one would overrun --seconds.
    const double begin = now_s();
    do {
      batches.push_back(workload.run_batch(/*traced=*/false));
    } while (now_s() - begin + batches.back().wall_s <= opts.seconds);
  } else {
    batches.push_back(workload.run_batch(/*traced=*/false));
    const SpanCost cost = calibrate_span_cost();
    libra::Profiler& prof = libra::Profiler::instance();
    prof.reset();
    prof.enable();
    batches.push_back(workload.run_batch(/*traced=*/true));
    prof.disable();
    const SpanTable spans(prof.merged(), cost);
    report.metrics = layer_metrics(spans, batches[0], batches[1]);
    report.metrics.push_back({"trace.span_cost_ns", cost.inside_ns + cost.outside_ns, "ns"});
    prof.reset();
  }

  for (const BatchResult& b : batches) {
    report.attempted += b.op_ok.size();
    report.failed += failed_ops(b, batches.front());
  }
  if (report.failed > 0) report.correct = false;
  report.work_json = counters_json(batches.front());

  if (!opts.trace) {
    // Op percentiles are taken per batch and, like the batch timings, reported
    // as the median over batches: a host hiccup during a few batches then
    // moves none of them.
    std::vector<double> wall, cpu, p50, p90;
    for (const BatchResult& b : batches) {
      wall.push_back(b.wall_s);
      cpu.push_back(b.cpu_s);
      std::vector<double> op_ms;
      for (const Interval& iv : b.ops) op_ms.push_back(iv.ms());
      p50.push_back(percentile(op_ms, 0.5));
      p90.push_back(percentile(op_ms, 0.9));
    }
    const double wall_s = median(wall);
    report.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"wall_s", wall_s, "s"},
        {"cpu_s", median(cpu), "s"},
        {"flow_s_per_wall_s", workload.batch_flow_seconds() / wall_s, "flow-s/s"},
        {"op_ms_p50", median(p50), "ms"},
        {"op_ms_p90", median(p90), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  }
  for (Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      m.value = 0;
      report.correct = false;
    }
  }

  std::string prov;
  libra::JsonWriter w(prov);
  w.begin_object();
  w.key("source").value(opts.source);
  w.key("isa").value(libra::simd::isa_name(libra::simd::active()));
  w.key("nproc").value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("pool").value(static_cast<std::uint64_t>(workload.threads()));
  w.key("workload").value(opts.workload);
  w.key("seed").value(opts.seed);
  w.key("seconds").value(opts.seconds);
  w.key("trace").value(opts.trace);
  w.key("batches").value(static_cast<std::uint64_t>(batches.size()));
  w.key("config");
  prov += workload.config_json();
  w.end_object();
  report.provenance_json = prov;
  return report;
}

}  // namespace perfbench
