// Struct-of-arrays hot state for the fleet engine's per-tick sender scan.
//
// A 1000-flow scenario ticking every 10 ms performs 100k per-flow tick visits
// per simulated second. Visiting the Sender object (and through it the CCA)
// for each one drags several cold cache lines per flow through L1 just to
// discover that, for a window-limited classic flow, there is nothing to do.
// These parallel arrays carry exactly the facts the scan needs to make that
// decision — ~25 bytes per flow, so a 1000-flow scan reads ~25 KB of dense,
// sequential memory and touches Sender objects only for flows with real work
// (RTO expiry, a tick-driven controller, or window headroom to send into).
//
// The arrays are a *cache*, not the source of truth: the Sender refreshes its
// row (sync_hot) at the end of every state-changing entry point, and every
// transition that could create work for a skipped flow happens inside such an
// entry point. Flow objects stay the API; this is the view the hot loop takes.
//
// Rows are not flow ids. The fleet engine assigns them shard-major, one
// contiguous block per shard with spare rows around it, and keeps a flow id
// -> row map (FleetNetwork::setup); a shard's scan and its senders then write
// only cache lines no other shard writes. Spare rows stay inactive.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace libra {

struct FleetFlowHot {
  /// Flow has started and not yet finished its byte budget.
  static constexpr std::uint8_t kActive = 1u << 0;
  /// Controller's wants_tick(): on_tick must run every scan regardless of
  /// window state (BBR's ProbeRTT clock, learned monitor intervals, Libra).
  static constexpr std::uint8_t kWantsTick = 1u << 1;

  std::vector<std::uint8_t> flags;
  /// Earliest instant the front outstanding packet can RTO (kSimTimeMax when
  /// nothing is outstanding). The scan must run the flow's tick once now
  /// passes this, so timeout losses are detected on the same tick the legacy
  /// per-sender timer would have detected them.
  std::vector<SimTime> rto_deadline;
  /// cwnd_bytes - bytes_in_flight after the flow's last event. A flow is
  /// window-limited (skippable) while this is below one packet.
  std::vector<std::int64_t> send_headroom;
  /// Sender's configured stop time; the scan deactivates the flow past it.
  std::vector<SimTime> stop_time;

  void resize(std::size_t flows) {
    flags.resize(flows, 0);
    rto_deadline.resize(flows, kSimTimeMax);
    send_headroom.resize(flows, 0);
    stop_time.resize(flows, kSimTimeMax);
  }

  std::size_t size() const { return flags.size(); }
};

}  // namespace libra
