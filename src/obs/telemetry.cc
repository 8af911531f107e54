#include "obs/telemetry.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "obs/json.h"

namespace libra {

const char* const Telemetry::kFlowColumnNames[Telemetry::kFlowColumns] = {
    "cwnd_bytes", "pacing_rate_bps", "srtt_ms",      "inflight_bytes",
    "acked_bytes", "lost_packets",   "stage",
};

const char* const Telemetry::kQueueColumnNames[Telemetry::kQueueColumns] = {
    "depth_bytes", "depth_packets", "sojourn_ms", "drops"};

TelemetrySeries::TelemetrySeries(std::size_t columns, std::size_t max_buckets)
    : max_buckets_(max_buckets), cols_(columns) {
  if (columns == 0 || columns > kMaxColumns || max_buckets < 2)
    throw std::invalid_argument(
        "TelemetrySeries: need 1..kMaxColumns columns, >=2 buckets");
  for (auto& col : cols_) col.reserve(max_buckets_);
}

void TelemetrySeries::throw_column_mismatch() {
  throw std::invalid_argument("TelemetrySeries: column count mismatch");
}

void TelemetrySeries::flush() const {
  if (stage_count_ == 0 || stage_idx_ == kNoBucket) return;
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    auto& col = cols_[c];
    if (stage_idx_ == col.size())
      col.emplace_back();  // within reserved capacity: no allocation
    TelemetryBucket& b = col[stage_idx_];
    if (b.count == 0) {
      b.first = stage_first_[c];
      b.min = stage_min_[c];
      b.max = stage_max_[c];
    } else {
      if (stage_min_[c] < b.min) b.min = stage_min_[c];
      if (stage_max_[c] > b.max) b.max = stage_max_[c];
    }
    b.last = stage_last_[c];
    b.count += stage_count_;
  }
  stage_count_ = 0;
}

void TelemetrySeries::advance_to(std::size_t idx) {
  flush();
  if (idx >= max_buckets_) {
    // The clock only ever runs one bucket past the budget, so a single
    // pairwise merge (which halves the index) always brings it back in range.
    compact();
    idx = static_cast<std::size_t>(samples_ >> shift_);
  }
  stage_idx_ = idx;
}

void TelemetrySeries::compact() {
  // Pairwise merge in place: bucket i absorbs bucket i+1; the bucket width
  // (samples_per_bucket) doubles. An odd trailing bucket survives alone.
  // Callers flush staging first, so the merge sees every sample.
  for (auto& col : cols_) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < col.size(); i += 2) {
      TelemetryBucket merged = col[i];
      if (i + 1 < col.size()) merged.absorb(col[i + 1]);
      col[out++] = merged;
    }
    col.resize(out);
  }
  ++shift_;
}

void Telemetry::enable(const TelemetryConfig& config) {
  if (config.sample_interval <= 0)
    throw std::invalid_argument("Telemetry: sample_interval must be positive");
  if (config.max_buckets < 2)
    throw std::invalid_argument("Telemetry: max_buckets must be >= 2");
  config_ = config;
  stage_events_.reserve(config_.max_stage_events);
  enabled_ = true;
}

TelemetrySeries& Telemetry::grow_series(std::vector<TelemetrySeries>& group,
                                        int index, std::size_t columns) {
  auto idx = static_cast<std::size_t>(index);
  while (group.size() <= idx)
    group.emplace_back(columns, config_.max_buckets);
  return group[idx];
}

void Telemetry::push_stage(SimTime t, int flow, int stage) {
  if (stage_events_.size() >= config_.max_stage_events) {
    ++stage_events_dropped_;
    return;
  }
  stage_events_.push_back(
      {t, static_cast<std::int32_t>(flow), static_cast<std::int32_t>(stage)});
}

const TelemetrySeries* Telemetry::flow_series(int flow) const {
  auto idx = static_cast<std::size_t>(flow);
  return flow >= 0 && idx < flows_.size() ? &flows_[idx] : nullptr;
}

const TelemetrySeries* Telemetry::queue_series(int queue) const {
  auto idx = static_cast<std::size_t>(queue);
  return queue >= 0 && idx < queues_.size() ? &queues_[idx] : nullptr;
}

SimDuration Telemetry::bucket_width() const {
  std::uint64_t spb = 1;
  for (const auto& s : flows_) spb = std::max(spb, s.samples_per_bucket());
  for (const auto& s : queues_) spb = std::max(spb, s.samples_per_bucket());
  return config_.sample_interval * static_cast<SimDuration>(spb);
}

namespace {

void append_series_line(const char* kind, int index, const char* col_name,
                        const std::vector<TelemetryBucket>& col,
                        SimDuration bucket_us, std::string& out) {
  JsonWriter w(out);
  w.begin_object();
  w.key("series").value(kind);
  w.key("id").value(index);
  w.key("col").value(col_name);
  w.key("bucket_us").value(static_cast<std::int64_t>(bucket_us));
  w.key("n").value(static_cast<std::int64_t>(col.size()));
  w.key("first").begin_array();
  for (const auto& b : col) w.value(b.first);
  w.end_array();
  w.key("last").begin_array();
  for (const auto& b : col) w.value(b.last);
  w.end_array();
  w.key("min").begin_array();
  for (const auto& b : col) w.value(b.min);
  w.end_array();
  w.key("max").begin_array();
  for (const auto& b : col) w.value(b.max);
  w.end_array();
  w.key("count").begin_array();
  for (const auto& b : col) w.value(static_cast<std::int64_t>(b.count));
  w.end_array();
  w.end_object();
}

}  // namespace

void Telemetry::write_jsonl(std::ostream& out) const {
  std::string line;
  {
    JsonWriter w(line);
    w.begin_object();
    w.key("telemetry").value("v1");
    w.key("interval_us").value(static_cast<std::int64_t>(config_.sample_interval));
    w.key("flows").value(static_cast<std::int64_t>(flows_.size()));
    w.key("queues").value(static_cast<std::int64_t>(queues_.size()));
    w.key("max_buckets").value(static_cast<std::int64_t>(config_.max_buckets));
    w.key("stage_events").value(static_cast<std::int64_t>(stage_events_.size()));
    w.key("stage_events_dropped")
        .value(static_cast<std::int64_t>(stage_events_dropped_));
    w.end_object();
  }
  out << line << "\n";
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    SimDuration bucket_us =
        config_.sample_interval *
        static_cast<SimDuration>(flows_[f].samples_per_bucket());
    for (std::size_t c = 0; c < kFlowColumns; ++c) {
      line.clear();
      append_series_line("flow", static_cast<int>(f), kFlowColumnNames[c],
                         flows_[f].column(c), bucket_us, line);
      out << line << "\n";
    }
  }
  for (std::size_t q = 0; q < queues_.size(); ++q) {
    SimDuration bucket_us =
        config_.sample_interval *
        static_cast<SimDuration>(queues_[q].samples_per_bucket());
    for (std::size_t c = 0; c < kQueueColumns; ++c) {
      line.clear();
      append_series_line("queue", static_cast<int>(q), kQueueColumnNames[c],
                         queues_[q].column(c), bucket_us, line);
      out << line << "\n";
    }
  }
  for (const TelemetryStageEvent& ev : stage_events_) {
    line.clear();
    JsonWriter w(line);
    w.begin_object();
    w.key("ev").value("stage");
    w.key("t_us").value(static_cast<std::int64_t>(ev.t));
    w.key("flow").value(static_cast<std::int64_t>(ev.flow));
    w.key("stage").value(static_cast<std::int64_t>(ev.stage));
    w.end_object();
    out << line << "\n";
  }
}

}  // namespace libra
