// Canonical experiment scenarios.
//
// Each Scenario fully determines a bottleneck (trace family plus one
// LinkConfig: buffer, propagation delay, loss, ECN marking, policer and queue
// discipline) while leaving the stochastic trace realization to a per-run
// seed, so repeated-trial experiments (Fig. 2b, Tab. 6) get genuinely
// different trace draws.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/link.h"
#include "trace/lte_model.h"
#include "trace/rate_trace.h"

namespace libra {

struct Scenario {
  std::string name;
  /// Builds the capacity trace for a given run seed.
  std::function<std::shared_ptr<RateTrace>(std::uint64_t seed)> make_trace;
  /// The bottleneck's settings (see sim/link.h). `propagation_delay` is the
  /// forward one-way delay, half the scenario's min RTT (the other half is
  /// the ACK path). `capacity` and `seed` are per run: link_config() fills
  /// them.
  LinkConfig link;
  SimDuration duration = sec(60);
  /// Nominal mean capacity (for reporting normalization).
  RateBps nominal_rate = 0;

  LinkConfig link_config(std::uint64_t seed) const {
    LinkConfig cfg = link;
    cfg.capacity = make_trace(seed);
    cfg.seed = seed ^ 0xABCDEF;
    return cfg;
  }
};

/// Fixed-rate wired bottleneck.
Scenario wired_scenario(double rate_mbps, SimDuration min_rtt = msec(30),
                        std::int64_t buffer_bytes = 150 * 1000);

/// Synthetic LTE cellular bottleneck for a mobility profile.
Scenario lte_scenario(LteProfile profile, const std::string& label,
                      SimDuration min_rtt = msec(30),
                      std::int64_t buffer_bytes = 150 * 1000);

/// Fig. 2(a): capacity steps every 10 s (cycling levels), 80 ms RTT, 1 BDP.
Scenario step_scenario();

/// The Fig. 1 sets: Wired#1-3 (24/48/96 Mbps) and LTE#1-3.
std::vector<Scenario> fig1_scenarios();

/// The Fig. 7 sets: 4 wired (12/24/48/96 Mbps) and 4 cellular traces.
std::vector<Scenario> wired_set();
std::vector<Scenario> cellular_set();

/// Synthetic WAN path profiles standing in for the EC2 experiments (Sec. 5.4):
/// inter-continental (long RTT, stochastic loss, capacity jitter) and
/// intra-continental (moderate RTT, mild loss).
Scenario wan_inter_continental();
Scenario wan_intra_continental();

/// Sec. 7 extensions: satellite-like (very long RTT + heavy stochastic loss)
/// and 5G-like (abrupt large capacity fluctuation).
Scenario satellite_scenario();
Scenario fiveg_scenario();

/// Adversarial WAN path: the access link is fast but an ISP token-bucket
/// policer caps the flow at `policer_rate_mbps` from `policer_start` on —
/// the BBR lt_bw detection scenario.
Scenario policed_wan_scenario(double rate_mbps = 40, double policer_rate_mbps = 10,
                              std::int64_t burst_bytes = 30 * 1000,
                              SimTime policer_start = 0);

}  // namespace libra
