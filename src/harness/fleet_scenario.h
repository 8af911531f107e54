// Fleet-scale scenario builders: canonical many-flow topologies for the
// FleetNetwork engine.
//
// Two topology families cover the paper's multi-flow concerns at scale:
//
//  - Incast: N flows fan into one bottleneck hop, with optionally staggered
//    start times. Stress-tests fairness (Jain index across the fan-in) and
//    the engine's per-tick scan cost, which is what bench_fleet measures.
//  - Parking lot: a chain of H bottleneck hops where `long_flows` span the
//    whole chain and the remaining flows are per-hop cross traffic spanning
//    `span` hops each. The classic multi-bottleneck fairness topology.
//
// Flow plans are built by plan_fleet_flows() before the network exists, on a
// dedicated serial RNG stream: static (non-churn) plans draw NOTHING from the
// stream, so enabling churn — which draws exponential inter-arrivals and
// truncated-Pareto flow sizes — never perturbs any other seeded component,
// and churn-off plans are bitwise identical to hand-written static plans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "obs/health.h"
#include "sim/fleet.h"

namespace libra {

/// Staggered flow arrivals with heavy-tailed (bounded Pareto) sizes.
struct FleetChurnSpec {
  bool enabled = false;
  /// Mean arrival rate of short flows (Poisson process).
  double arrivals_per_sec = 20.0;
  /// Pareto shape; alpha in (1, 2] gives the classic heavy-tailed mix where
  /// most flows are mice but most bytes ride elephants.
  double pareto_alpha = 1.2;
  /// Pareto scale = minimum flow size.
  std::int64_t min_bytes = 15 * 1000;
  /// Truncation bound so a single draw cannot dominate the whole run.
  std::int64_t max_bytes = 30 * 1000 * 1000;
  /// Arrival process active over [start, stop).
  SimTime start = sec(1);
  SimTime stop = kSimTimeMax;
};

struct FleetSpec {
  std::string name;
  /// Number of bottleneck hops in the chain (1 = incast).
  int hops = 1;
  double hop_rate_mbps = 96.0;
  std::int64_t buffer_bytes = 150 * 1000;
  /// Hop-to-next propagation (cross-shard edge; bounds the lookahead).
  SimDuration hop_delay = msec(5);
  SimDuration access_delay = msec(2);
  /// Long-lived flows. For incast every flow enters hop 0; for a parking lot
  /// `long_flows` of them span the whole chain and the rest are cross
  /// traffic, flow i entering hop (i % hops) and spanning `span` hops.
  int flows = 100;
  int long_flows = 0;
  int span = 1;
  /// Per-flow start stagger: flow i starts at i * stagger.
  SimDuration stagger = 0;
  SimDuration duration = sec(10);
  SimTime warmup = sec(1);
  /// Shards dedicated to senders (FleetOptions::sender_shards).
  int sender_shards = 0;
  FleetChurnSpec churn;

  /// Datacenter & policed-path knobs (see sim/link.h for semantics). A hop
  /// that marks makes every sender ECN-capable (FleetNetwork), so the marks
  /// actually reach the CCAs; the policer applies to every hop of the chain
  /// (the canonical policed specs are single-bottleneck anyway).
  std::int64_t ecn_threshold_bytes = 0;
  double policer_rate_mbps = 0;
  std::int64_t policer_burst_bytes = 30 * 1000;
  bool policer_marks = false;
  SimTime policer_start = 0;
  SimTime policer_stop = kSimTimeMax;
};

/// One planned flow: everything FleetNetwork::add_flow needs except the CCA.
struct FleetFlowPlan {
  SimTime start = 0;
  SimTime stop = kSimTimeMax;
  std::int64_t byte_budget = -1;  // negative = backlogged long flow
  int enter_hop = 0;
  int exit_hop = -1;
};

/// N-flow single-bottleneck fan-in.
FleetSpec incast_fleet(int flows, double rate_mbps = 960.0,
                       SimDuration stagger = msec(10));

/// H-hop chain: `long_flows` spanning flows plus per-hop cross traffic.
FleetSpec parking_lot_fleet(int hops, int cross_per_hop, int long_flows = 4,
                            double rate_mbps = 96.0);

/// Expands the spec into concrete flow plans. Static flows are laid out
/// arithmetically with zero RNG draws; churn flows (if enabled) are drawn
/// from a dedicated Rng seeded with `seed` — exponential inter-arrival times
/// and bounded-Pareto sizes, appended after the static flows in arrival
/// order. Deterministic: same (spec, seed) always yields the same plan.
std::vector<FleetFlowPlan> plan_fleet_flows(const FleetSpec& spec,
                                            std::uint64_t seed);

struct FleetRunOptions {
  FleetMode mode = FleetMode::kSerial;
  std::size_t threads = 0;
  SimDuration tick_interval = msec(10);
  /// Streaming windowed health stats + anomaly detection with the default
  /// HealthConfig; works under both engines and never perturbs the run. Read
  /// the report back through the FleetObsResult out-parameter of run_fleet.
  bool health = false;
  /// >0: black-box FlightRecorder ring of this many events (bounded memory,
  /// oldest overwritten). Serial mode only.
  std::size_t record_capacity = 0;
};

/// Observability outputs of a fleet run (everything summarize() doesn't
/// cover). All fields are deterministic: the health report and the per-shard
/// event counts are bitwise identical serial vs. sharded.
struct FleetObsResult {
  HealthReport health;  // empty unless FleetRunOptions::health
  std::uint64_t trace_recorded = 0;  // black-box ring stats (record_capacity)
  std::uint64_t trace_overwritten = 0;
  std::uint64_t trace_buffered = 0;
  std::vector<std::uint64_t> shard_events;  // events executed per shard
};

/// Builds FleetOptions for the spec (shared by both run_fleet overloads).
FleetOptions fleet_options(const FleetSpec& spec, std::uint64_t seed,
                           const FleetRunOptions& run);

/// Builds the hop chain for the spec: one LinkConfig per hop, each with its
/// own constant-rate capacity trace and `hop_delay` as its egress
/// propagation.
std::vector<LinkConfig> fleet_links(const FleetSpec& spec);

/// Plans flows, builds the network, attaches `make_cca()` per flow, runs to
/// spec.duration and summarizes. `make_cca` is invoked once per flow in flow
/// order (so shared-state factories see a deterministic sequence). When `obs`
/// is non-null it receives the run's observability outputs (health report,
/// black-box trace stats, per-shard event counts).
FleetSummary run_fleet(const FleetSpec& spec, const CcaFactory& make_cca,
                       std::uint64_t seed, const FleetRunOptions& run = {},
                       FleetObsResult* obs = nullptr);

/// As above but the factory sees the flow id (mixed-CCA fleets).
FleetSummary run_fleet(
    const FleetSpec& spec,
    const std::function<std::unique_ptr<CongestionControl>(int flow)>& make_cca,
    std::uint64_t seed, const FleetRunOptions& run = {},
    FleetObsResult* obs = nullptr);

}  // namespace libra
