#include "harness/fleet_scenario.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace libra {

FleetSpec incast_fleet(int flows, double rate_mbps, SimDuration stagger) {
  FleetSpec spec;
  spec.name = "incast_" + std::to_string(flows);
  spec.hops = 1;
  spec.hop_rate_mbps = rate_mbps;
  spec.flows = flows;
  spec.stagger = stagger;
  return spec;
}

FleetSpec parking_lot_fleet(int hops, int cross_per_hop, int long_flows,
                            double rate_mbps) {
  FleetSpec spec;
  spec.name = "parking_lot_" + std::to_string(hops);
  spec.hops = hops;
  spec.hop_rate_mbps = rate_mbps;
  spec.flows = hops * cross_per_hop;
  spec.long_flows = long_flows;
  spec.span = 1;
  spec.stagger = msec(10);
  return spec;
}

std::vector<FleetFlowPlan> plan_fleet_flows(const FleetSpec& spec,
                                            std::uint64_t seed) {
  if (spec.hops < 1) throw std::invalid_argument("FleetSpec: hops must be >= 1");
  if (spec.flows < 0 || spec.long_flows < 0)
    throw std::invalid_argument("FleetSpec: negative flow count");
  if (spec.span < 1 || spec.span > spec.hops)
    throw std::invalid_argument("FleetSpec: span out of range");

  std::vector<FleetFlowPlan> plans;
  plans.reserve(static_cast<std::size_t>(spec.flows + spec.long_flows));

  // Static layout: pure arithmetic, no RNG involvement, so churn-off plans
  // match hand-written flow lists bit for bit.
  for (int i = 0; i < spec.long_flows; ++i) {
    FleetFlowPlan p;
    p.start = static_cast<SimTime>(i) * spec.stagger;
    p.enter_hop = 0;
    p.exit_hop = spec.hops - 1;
    plans.push_back(p);
  }
  for (int i = 0; i < spec.flows; ++i) {
    FleetFlowPlan p;
    p.start = static_cast<SimTime>(spec.long_flows + i) * spec.stagger;
    p.enter_hop = i % spec.hops;
    p.exit_hop = std::min(p.enter_hop + spec.span - 1, spec.hops - 1);
    plans.push_back(p);
  }

  if (spec.churn.enabled) {
    const FleetChurnSpec& c = spec.churn;
    if (c.arrivals_per_sec <= 0)
      throw std::invalid_argument("FleetChurnSpec: arrival rate must be > 0");
    if (c.pareto_alpha <= 0)
      throw std::invalid_argument("FleetChurnSpec: pareto_alpha must be > 0");
    if (c.min_bytes <= 0 || c.max_bytes < c.min_bytes)
      throw std::invalid_argument("FleetChurnSpec: bad size bounds");
    // Dedicated stream: the constant matches no other component's seed mix,
    // and static planning above never touches it.
    Rng rng(seed ^ 0xC0FFEE0Dull);
    const SimTime stop = std::min<SimTime>(c.stop, spec.duration);
    double t = to_seconds(c.start);
    const double horizon = to_seconds(stop);
    const double inv_alpha = 1.0 / c.pareto_alpha;
    while (true) {
      t += rng.exponential(c.arrivals_per_sec);
      if (t >= horizon) break;
      FleetFlowPlan p;
      p.start = sec(t);
      // Bounded Pareto via inverse transform of the plain Pareto CDF, then
      // truncation: size = min / (1-u)^(1/alpha), clamped to max_bytes.
      const double u = rng.uniform();
      const double raw =
          static_cast<double>(c.min_bytes) * std::pow(1.0 - u, -inv_alpha);
      p.byte_budget = std::min<std::int64_t>(
          c.max_bytes, static_cast<std::int64_t>(std::llround(
                           std::min(raw, static_cast<double>(c.max_bytes)))));
      p.byte_budget = std::max(p.byte_budget, c.min_bytes);
      p.enter_hop = static_cast<int>(rng.uniform_int(0, spec.hops - 1));
      p.exit_hop = std::min(p.enter_hop + spec.span - 1, spec.hops - 1);
      plans.push_back(p);
    }
  }
  return plans;
}

std::vector<LinkConfig> fleet_links(const FleetSpec& spec) {
  std::vector<LinkConfig> links(static_cast<std::size_t>(spec.hops));
  for (LinkConfig& link : links) {
    link.capacity = std::make_shared<ConstantTrace>(mbps(spec.hop_rate_mbps));
    link.buffer_bytes = spec.buffer_bytes;
    link.propagation_delay = spec.hop_delay;
    link.ecn_threshold_bytes = spec.ecn_threshold_bytes;
    link.policer_rate = spec.policer_rate_mbps > 0 ? mbps(spec.policer_rate_mbps) : 0;
    link.policer_burst_bytes = spec.policer_burst_bytes;
    link.policer_marks = spec.policer_marks;
    link.policer_start = spec.policer_start;
    link.policer_stop = spec.policer_stop;
  }
  return links;
}

FleetOptions fleet_options(const FleetSpec& spec, std::uint64_t seed,
                           const FleetRunOptions& run) {
  FleetOptions opts;
  opts.mode = run.mode;
  opts.threads = run.threads;
  opts.sender_shards = spec.sender_shards;
  opts.access_delay = spec.access_delay;
  opts.duration = spec.duration;
  opts.warmup = spec.warmup;
  opts.seed = seed;
  opts.sender.tick_interval = run.tick_interval;
  return opts;
}

FleetSummary run_fleet(
    const FleetSpec& spec,
    const std::function<std::unique_ptr<CongestionControl>(int flow)>& make_cca,
    std::uint64_t seed, const FleetRunOptions& run, FleetObsResult* obs) {
  std::vector<FleetFlowPlan> plans = plan_fleet_flows(spec, seed);
  FleetNetwork net(fleet_links(spec), fleet_options(spec, seed, run));
  if (run.health) net.enable_health();
  if (run.record_capacity > 0) net.enable_recording(run.record_capacity);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    FleetFlowDef def;
    def.cca = make_cca(static_cast<int>(i));
    def.start = plans[i].start;
    def.stop = plans[i].stop;
    def.byte_budget = plans[i].byte_budget;
    def.enter_hop = plans[i].enter_hop;
    def.exit_hop = plans[i].exit_hop;
    net.add_flow(std::move(def));
  }
  net.run();
  if (obs) {
    obs->shard_events = net.shard_event_counts();
    if (run.health)
      obs->health = analyze_health(net.health()->timeline());
    if (const FlightRecorder* rec = net.recorder()) {
      obs->trace_recorded = rec->recorded();
      obs->trace_overwritten = rec->overwritten();
      obs->trace_buffered = rec->buffered();
    }
  }
  return net.summarize();
}

FleetSummary run_fleet(const FleetSpec& spec, const CcaFactory& make_cca,
                       std::uint64_t seed, const FleetRunOptions& run,
                       FleetObsResult* obs) {
  return run_fleet(
      spec, [&make_cca](int) { return make_cca(); }, seed, run, obs);
}

}  // namespace libra
