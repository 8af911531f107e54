// Streaming fleet-scale flow statistics: fixed sim-time windows of per-flow
// goodput/loss/RTT aggregates, accumulated inline on the simulation hot path
// and flushed into a preallocated FleetTimeline.
//
// Contract (shared with FlightRecorder / Telemetry / Profiler):
//
//   - every hot-path hook's first statement is `if (!enabled_) return;`, so a
//     disabled FleetHealth costs one predictable branch and nothing else;
//   - enabling is a pure reader: hooks only observe sender state, so a run
//     with health on is bitwise identical to the same run with health off;
//   - the steady state is allocation-free: prepare() sizes every accumulator
//     and every timeline row up front (flows x windows), asserted in
//     tests/alloc_test.cc.
//
// Determinism: each flow's hooks (ack/loss/send/tick) all execute on the
// flow's owning sender shard, and per-shard event order is bitwise identical
// between the serial and sharded fleet engines by construction. Window rolls
// are triggered by the first hook (or shard tick) at-or-past the window
// boundary, so every FlowWindowRow — and therefore the whole timeline — is
// byte-identical serial vs. sharded at any thread count. Flows never share
// accumulator slots, so concurrent shards touch disjoint state; the fleet
// engine hands prepare() its shard-major row map, so the accumulators of two
// shards do not share a cache line either. The timeline stays flow-major.
//
// RTT percentiles come from a fixed-width per-flow histogram (default 500 us
// buckets, 96 buckets = 48 ms span, last bucket absorbs overflow); the p95 is
// reported as the upper edge of the bucket holding the 95th sample — exact
// integer arithmetic, no floating-point accumulation order to worry about.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/types.h"

namespace libra {

struct FleetStatsConfig {
  /// Aggregation window; every flow's timeline shares one global window grid.
  SimDuration window = msec(100);
  /// RTT histogram bucket width (microseconds of SimDuration).
  SimDuration rtt_bucket = 500;
  /// Bucket count; the last bucket absorbs samples past the histogram span.
  int rtt_buckets = 96;
};

/// One flow x window cell of the timeline. Integer fields are exact sums in
/// per-shard event order; snapshots are taken when the window is flushed.
struct FlowWindowRow {
  std::int64_t acked_bytes = 0;
  std::int32_t sent = 0;            // packets transmitted in the window
  std::int32_t lost = 0;            // packets declared lost in the window
  std::int64_t rtt_sum_us = 0;
  std::int32_t rtt_samples = 0;
  std::int32_t rtt_min_us = 0;      // 0 when the window saw no ACKs
  std::int32_t rtt_p95_us = 0;      // histogram bucket upper edge; 0 when none
  std::int64_t cwnd_bytes = 0;      // snapshot at window close
  double pacing_rate_bps = 0;       // effective pacing rate at window close
};

/// Per-flow lifetime facts the detectors need alongside the windows.
struct FleetFlowMeta {
  SimTime start = 0;
  SimTime stop = kSimTimeMax;
  std::int64_t byte_budget = -1;    // negative = backlogged
  SimTime finished_time = -1;       // finite flows; -1 = did not finish
  std::int64_t min_rtt_us = 0;      // lifetime minimum RTT (0 = no ACKs)
};

/// Dense flow-major timeline: row(flow, w) covers sim time
/// [w*window, (w+1)*window); the last window additionally includes the run's
/// final instant. Filled by FleetHealth, consumed by analyze_health().
struct FleetTimeline {
  FleetStatsConfig config;
  SimDuration duration = 0;
  int n_windows = 0;
  std::vector<FleetFlowMeta> metas;  // per flow, id order
  std::vector<FlowWindowRow> rows;   // [flow * n_windows + w]

  int flows() const { return static_cast<int>(metas.size()); }
  const FlowWindowRow& row(int flow, int w) const {
    return rows[static_cast<std::size_t>(flow) *
                    static_cast<std::size_t>(n_windows) +
                static_cast<std::size_t>(w)];
  }
};

class FleetHealth {
 public:
  bool enabled() const { return enabled_; }

  void enable(const FleetStatsConfig& config) {
    if (config.window <= 0)
      throw std::invalid_argument("FleetHealth: window must be > 0");
    if (config.rtt_bucket <= 0 || config.rtt_buckets < 1)
      throw std::invalid_argument("FleetHealth: bad RTT histogram layout");
    config_ = config;
    enabled_ = true;
  }

  /// Sizes every accumulator and timeline row for `metas.size()` flows over
  /// `duration`. After this call the hooks and roll() never allocate.
  /// `rows[flow]` is the flow's accumulator row, below `row_count`; empty
  /// `rows` means row = flow id.
  void prepare(SimDuration duration, std::vector<FleetFlowMeta> metas,
               std::vector<std::size_t> rows = {}, std::size_t row_count = 0) {
    if (!enabled_) return;
    if (duration <= 0)
      throw std::invalid_argument("FleetHealth: duration must be > 0");
    const std::size_t flows = metas.size();
    if (rows.empty()) {
      rows.resize(flows);
      for (std::size_t i = 0; i < flows; ++i) rows[i] = i;
      row_count = flows;
    }
    row_ = std::move(rows);
    timeline_.config = config_;
    timeline_.duration = duration;
    timeline_.n_windows =
        static_cast<int>((duration + config_.window - 1) / config_.window);
    timeline_.metas = std::move(metas);
    timeline_.rows.assign(
        flows * static_cast<std::size_t>(timeline_.n_windows), FlowWindowRow{});
    acc_acked_.assign(row_count, 0);
    acc_sent_.assign(row_count, 0);
    acc_lost_.assign(row_count, 0);
    acc_rtt_sum_.assign(row_count, 0);
    acc_rtt_n_.assign(row_count, 0);
    acc_rtt_min_.assign(row_count, std::numeric_limits<std::int32_t>::max());
    hist_.assign(row_count * static_cast<std::size_t>(config_.rtt_buckets), 0);
    cur_win_.assign(row_count, 0);
    cur_end_.assign(row_count,
                    timeline_.n_windows > 1 ? config_.window : kSimTimeMax);
  }

  // --- hot-path hooks (inline no-ops while disabled) -----------------------

  void on_ack(int flow, std::int64_t bytes, SimDuration rtt) {
    if (!enabled_) return;
    const std::size_t i = row_[static_cast<std::size_t>(flow)];
    acc_acked_[i] += bytes;
    acc_rtt_sum_[i] += rtt;
    ++acc_rtt_n_[i];
    const auto rtt32 = static_cast<std::int32_t>(
        rtt < std::numeric_limits<std::int32_t>::max()
            ? rtt
            : std::numeric_limits<std::int32_t>::max());
    if (rtt32 < acc_rtt_min_[i]) acc_rtt_min_[i] = rtt32;
    std::int64_t b = rtt / config_.rtt_bucket;
    if (b >= config_.rtt_buckets) b = config_.rtt_buckets - 1;
    ++hist_[i * static_cast<std::size_t>(config_.rtt_buckets) +
            static_cast<std::size_t>(b)];
  }

  void on_send(int flow) {
    if (!enabled_) return;
    ++acc_sent_[row_[static_cast<std::size_t>(flow)]];
  }

  void on_loss(int flow) {
    if (!enabled_) return;
    ++acc_lost_[row_[static_cast<std::size_t>(flow)]];
  }

  /// True when `now` is past the flow's current window. Callers check this
  /// before every accumulate hook (one comparison) and only snapshot
  /// cwnd/pacing when it fires, so the common path stays branch + adds.
  bool needs_roll(int flow, SimTime now) const {
    return now >= cur_end_[row_[static_cast<std::size_t>(flow)]];
  }

  /// Flushes every window strictly before `now`'s window: the first flushed
  /// window receives the accumulators (all pending events belong to it by the
  /// needs_roll invariant), later ones stay empty. All flushed rows get the
  /// caller's cwnd/pacing snapshot.
  void roll(int flow, SimTime now, std::int64_t cwnd, double pacing_bps) {
    if (!enabled_) return;
    std::int64_t target = now / config_.window;
    const std::int64_t last = timeline_.n_windows - 1;
    if (target > last) target = last;
    flush_to(flow, static_cast<int>(target), cwnd, pacing_bps);
  }

  /// Final flush through the last window (inclusive); call once per flow
  /// after the run ends, then set_flow_outcome + finalize.
  void flush_all(int flow, std::int64_t cwnd, double pacing_bps) {
    if (!enabled_) return;
    flush_to(flow, timeline_.n_windows, cwnd, pacing_bps);
  }

  void set_flow_outcome(int flow, SimTime finished_time,
                        SimDuration lifetime_min_rtt) {
    if (!enabled_) return;
    FleetFlowMeta& m = timeline_.metas[static_cast<std::size_t>(flow)];
    m.finished_time = finished_time;
    m.min_rtt_us = lifetime_min_rtt;
  }

  const FleetTimeline& timeline() const { return timeline_; }

 private:
  void flush_to(int flow, int target, std::int64_t cwnd, double pacing_bps) {
    const auto f = static_cast<std::size_t>(flow);
    const std::size_t i = row_[f];
    const auto nb = static_cast<std::size_t>(config_.rtt_buckets);
    while (cur_win_[i] < target) {
      FlowWindowRow& row =
          timeline_.rows[f * static_cast<std::size_t>(timeline_.n_windows) +
                         static_cast<std::size_t>(cur_win_[i])];
      row.acked_bytes = acc_acked_[i];
      row.sent = acc_sent_[i];
      row.lost = acc_lost_[i];
      row.rtt_sum_us = acc_rtt_sum_[i];
      row.rtt_samples = acc_rtt_n_[i];
      row.cwnd_bytes = cwnd;
      row.pacing_rate_bps = pacing_bps;
      if (acc_rtt_n_[i] > 0) {
        row.rtt_min_us = acc_rtt_min_[i];
        // 95th-percentile rank (1-based, ceil): the bucket whose cumulative
        // count reaches it; reported as the bucket's upper edge.
        const std::int64_t rank = (acc_rtt_n_[i] * 95 + 99) / 100;
        std::int64_t cum = 0;
        for (std::size_t b = 0; b < nb; ++b) {
          cum += hist_[i * nb + b];
          if (cum >= rank) {
            row.rtt_p95_us = static_cast<std::int32_t>(
                (static_cast<std::int64_t>(b) + 1) * config_.rtt_bucket);
            break;
          }
        }
        acc_rtt_sum_[i] = 0;
        acc_rtt_n_[i] = 0;
        acc_rtt_min_[i] = std::numeric_limits<std::int32_t>::max();
        for (std::size_t b = 0; b < nb; ++b) hist_[i * nb + b] = 0;
      }
      acc_acked_[i] = 0;
      acc_sent_[i] = 0;
      acc_lost_[i] = 0;
      ++cur_win_[i];
    }
    cur_end_[i] = cur_win_[i] >= timeline_.n_windows - 1
                      ? kSimTimeMax
                      : static_cast<SimTime>(cur_win_[i] + 1) * config_.window;
  }

  bool enabled_ = false;
  FleetStatsConfig config_;
  FleetTimeline timeline_;

  // Current-window accumulators (SoA), one row per flow at row_[flow]. A
  // flow's slots are touched only from its owning shard, so sharded
  // execution races on nothing.
  std::vector<std::size_t> row_;
  std::vector<std::int64_t> acc_acked_;
  std::vector<std::int32_t> acc_sent_;
  std::vector<std::int32_t> acc_lost_;
  std::vector<std::int64_t> acc_rtt_sum_;
  std::vector<std::int32_t> acc_rtt_n_;
  std::vector<std::int32_t> acc_rtt_min_;
  std::vector<std::uint32_t> hist_;  // [row * rtt_buckets + bucket]
  std::vector<std::int32_t> cur_win_;
  std::vector<SimTime> cur_end_;
};

}  // namespace libra
