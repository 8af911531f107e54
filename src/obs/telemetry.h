// Sampling-based per-run telemetry: bounded-memory columnar time series.
//
// Where the FlightRecorder logs every event (unusable at fleet scale — a
// 1000-flow run emits hundreds of millions of events), Telemetry snapshots
// per-flow sender state and per-queue state at a fixed *sim-time* interval
// into a columnar store with streaming M4-style decimation: every column
// keeps min/max/first/last (plus a sample count) per time bucket, and when
// the bucket count would exceed `max_buckets` adjacent buckets merge pairwise
// and the bucket width doubles. Memory therefore stays
// O(series x columns x max_buckets) no matter how long the run is, and the
// decimated series still bounds the true envelope of the signal (M4 is the
// standard lossless-for-rendering reduction for line plots).
//
// Contract, shared with every obs feature:
//   - disabled is free: push hooks start with `if (!enabled_) return;`, the
//     owning network schedules no sampling events, and tests/alloc_test.cc
//     asserts the disabled path performs zero allocations;
//   - sampling is driven by sim time, so the stored series are a pure
//     function of the run (byte-identical serial vs parallel), and sampler
//     callbacks only *read* simulator state, so enabling telemetry does not
//     perturb results (tests/telemetry_test.cc asserts bitwise-identical
//     RunSummary with telemetry on vs off);
//   - export: a JSONL form consumed by tools/report_html and offline
//     analysis.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/types.h"

namespace libra {

struct TelemetryConfig {
  /// Fixed sim-time sampling period. 1 ms gives ~60k samples over a 60 s run,
  /// decimated to max_buckets on the fly.
  SimDuration sample_interval = msec(1);
  /// Bucket budget per series; when exceeded, adjacent buckets merge pairwise
  /// (bucket width doubles), so a series never holds more than this.
  std::size_t max_buckets = 512;
  /// Cap on exact stage-transition annotations kept (Libra pushes one per
  /// stage change); overflow is counted, not stored.
  std::size_t max_stage_events = 8192;
};

/// One M4 bucket: the envelope of every sample that landed in it.
struct TelemetryBucket {
  double first = 0, last = 0, min = 0, max = 0;
  std::uint32_t count = 0;

  void add(double v) {
    if (count == 0) {
      first = last = min = max = v;
    } else {
      last = v;
      if (v < min) min = v;
      if (v > max) max = v;
    }
    ++count;
  }

  /// Folds `later` (a bucket strictly after this one in time) into this one.
  void absorb(const TelemetryBucket& later) {
    if (later.count == 0) return;
    if (count == 0) {
      *this = later;
      return;
    }
    last = later.last;
    if (later.min < min) min = later.min;
    if (later.max > max) max = later.max;
    count += later.count;
  }
};

/// A group of columns sharing one bucket clock (all columns of a flow, or of
/// a queue, advance together — one sample supplies one value per column).
///
/// Hot-path layout: the envelope of the *current* bucket accumulates in a
/// small fixed staging row (a few cache lines per series, hot for every
/// sampled series at once) and is folded into the cold bucket storage only
/// when the bucket index advances — once per samples_per_bucket() samples.
/// At a 1 ms interval on a 100-flow run this is the difference between
/// touching 7 cache lines spread over ~14 MB per sample and touching ~30 KB
/// total, which is what keeps the enabled sampler in the single-digit-ns
/// range per sample.
class TelemetrySeries {
 public:
  /// Staging is fixed-size; a series holds at most this many columns.
  static constexpr std::size_t kMaxColumns = 8;

  TelemetrySeries(std::size_t columns, std::size_t max_buckets);

  /// Appends one sample: `values[c]` for each column c. Steady-state
  /// allocation-free: columns are reserved to max_buckets at construction and
  /// compaction shrinks in place.
  void add(const double* values, std::size_t n) {
    if (n != cols_.size())
      throw_column_mismatch();
    const std::size_t idx = static_cast<std::size_t>(samples_ >> shift_);
    if (idx != stage_idx_) advance_to(idx);
    if (stage_count_ == 0) {
      for (std::size_t c = 0; c < n; ++c)
        stage_first_[c] = stage_last_[c] = stage_min_[c] = stage_max_[c] =
            values[c];
    } else {
      for (std::size_t c = 0; c < n; ++c) {
        const double v = values[c];
        stage_last_[c] = v;
        // Branchless (minsd/maxsd) — sampled signals flip direction often
        // enough that predicted branches would be the slower choice here.
        stage_min_[c] = v < stage_min_[c] ? v : stage_min_[c];
        stage_max_[c] = v > stage_max_[c] ? v : stage_max_[c];
      }
    }
    ++stage_count_;
    ++samples_;
  }

  std::size_t columns() const { return cols_.size(); }
  std::size_t buckets() const {
    flush();
    return cols_.empty() ? 0 : cols_[0].size();
  }
  std::uint64_t samples() const { return samples_; }
  /// Samples folded into each bucket (doubles on every compaction).
  std::uint64_t samples_per_bucket() const {
    return std::uint64_t{1} << shift_;
  }
  const std::vector<TelemetryBucket>& column(std::size_t c) const {
    flush();
    return cols_[c];
  }

 private:
  static constexpr std::size_t kNoBucket = ~std::size_t{0};

  /// Folds the staged envelope into the bucket storage. Const because every
  /// inspect/export path must see staged samples; the staging row and the
  /// bucket vectors are mutable for exactly this.
  void flush() const;
  /// Slow path of add(): flush, compact if the clock ran past max_buckets,
  /// re-stage the new current bucket.
  void advance_to(std::size_t idx);
  void compact();
  [[noreturn]] static void throw_column_mismatch();

  std::size_t max_buckets_;
  std::uint64_t samples_ = 0;
  /// log2(samples per bucket); bucket index is samples_ >> shift_.
  unsigned shift_ = 0;
  mutable std::size_t stage_idx_ = kNoBucket;
  mutable std::uint32_t stage_count_ = 0;
  mutable double stage_first_[kMaxColumns];
  mutable double stage_last_[kMaxColumns];
  mutable double stage_min_[kMaxColumns];
  mutable double stage_max_[kMaxColumns];
  mutable std::vector<std::vector<TelemetryBucket>> cols_;
};

/// Per-flow sampled state, filled by Sender::fill_telemetry.
struct TelemetryFlowSample {
  double cwnd_bytes = 0;
  double pacing_rate_bps = 0;  // effective (pacer) rate, not just the CCA's
  double srtt_ms = 0;
  double inflight_bytes = 0;
  double acked_bytes = 0;      // cumulative; per-bucket deltas give throughput
  double lost_packets = 0;     // cumulative
  double stage = -1;           // Libra control-cycle stage; -1 for other CCAs
};

/// Per-queue sampled state of a link (droptail or CoDel); filled by
/// Link::fill_telemetry.
struct TelemetryQueueSample {
  double depth_bytes = 0;
  double depth_packets = 0;
  double sojourn_ms = 0;  // exact sojourn of the head packet; 0 when empty
  double drops = 0;       // cumulative: overflow, wire, policer and CoDel
};

/// Exact stage-transition annotation pushed by the Libra core (the sampled
/// `stage` column quantizes transition times to the bucket width; reports
/// want the precise instants).
struct TelemetryStageEvent {
  SimTime t = 0;
  std::int32_t flow = -1;
  std::int32_t stage = 0;
};

class Telemetry {
 public:
  static constexpr std::size_t kFlowColumns = 7;
  static constexpr std::size_t kQueueColumns = 4;
  /// Column names, in sample-struct field order (JSONL schema).
  static const char* const kFlowColumnNames[kFlowColumns];
  static const char* const kQueueColumnNames[kQueueColumns];

  /// Starts collecting. Must be called before the owning network first runs
  /// (the network schedules its sampling event at run start).
  void enable(const TelemetryConfig& config = {});
  bool enabled() const { return enabled_; }
  const TelemetryConfig& config() const { return config_; }

  // --- push hooks (inline no-ops while disabled) ---------------------------

  /// Exact stage-transition annotation (Libra). Bounded: beyond
  /// max_stage_events the event is counted as dropped, not stored.
  void stage_event(SimTime t, int flow, int stage) {
    if (!enabled_) return;
    push_stage(t, flow, stage);
  }

  // --- sampling entry points (called by the owning network's sampler) ------
  // Inline so the tick loop's struct fills and the staging stores fuse; the
  // slow path (creating a series the first time a flow/queue is seen) stays
  // out of line.

  void sample_flow(int flow, const TelemetryFlowSample& s) {
    if (!enabled_ || flow < 0) return;
    const double values[kFlowColumns] = {
        s.cwnd_bytes,     s.pacing_rate_bps, s.srtt_ms, s.inflight_bytes,
        s.acked_bytes,    s.lost_packets,    s.stage};
    series_for(flows_, flow, kFlowColumns).add(values, kFlowColumns);
    ++samples_;
  }

  void sample_queue(int queue, const TelemetryQueueSample& s) {
    if (!enabled_ || queue < 0) return;
    const double values[kQueueColumns] = {s.depth_bytes, s.depth_packets,
                                          s.sojourn_ms, s.drops};
    series_for(queues_, queue, kQueueColumns).add(values, kQueueColumns);
    ++samples_;
  }

  // --- inspect -------------------------------------------------------------

  int flow_count() const { return static_cast<int>(flows_.size()); }
  int queue_count() const { return static_cast<int>(queues_.size()); }
  /// nullptr when the flow/queue has not been sampled.
  const TelemetrySeries* flow_series(int flow) const;
  const TelemetrySeries* queue_series(int queue) const;
  const std::vector<TelemetryStageEvent>& stage_events() const {
    return stage_events_;
  }
  std::uint64_t stage_events_dropped() const { return stage_events_dropped_; }
  std::uint64_t samples() const { return samples_; }
  /// Current bucket width in sim time (sample_interval x samples_per_bucket).
  SimDuration bucket_width() const;

  // --- export --------------------------------------------------------------

  /// JSONL: one header line, one line per (series, column) with first/last/
  /// min/max/count arrays, then one line per stage event. Schema documented
  /// in EXPERIMENTS.md ("Telemetry").
  void write_jsonl(std::ostream& out) const;

 private:
  void push_stage(SimTime t, int flow, int stage);
  TelemetrySeries& series_for(std::vector<TelemetrySeries>& group, int index,
                              std::size_t columns) {
    auto idx = static_cast<std::size_t>(index);
    if (idx < group.size()) return group[idx];
    return grow_series(group, index, columns);
  }
  TelemetrySeries& grow_series(std::vector<TelemetrySeries>& group, int index,
                               std::size_t columns);

  bool enabled_ = false;
  TelemetryConfig config_;
  std::uint64_t samples_ = 0;
  std::vector<TelemetrySeries> flows_;
  std::vector<TelemetrySeries> queues_;
  std::vector<TelemetryStageEvent> stage_events_;
  std::uint64_t stage_events_dropped_ = 0;
};

/// Harness-facing switches, threaded through ObsOptions/RunRequest so every
/// run in a run_many batch can dump its own columnar series.
struct TelemetryOptions {
  bool enabled = false;
  TelemetryConfig config;
  /// When non-empty, the run's columnar store is dumped here after the run as
  /// JSONL (tools/report_html input).
  std::string jsonl_path;
};

}  // namespace libra
