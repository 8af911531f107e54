// Flight recorder: a per-run, sim-time-stamped event trace.
//
// Every run (one Network) owns one recorder. Simulator components call the
// inline record methods from their hot paths; each method's first statement
// is `if (!enabled_) return;`, so a disabled recorder costs one predictable
// branch and nothing else — no event construction, no allocation. enable()
// preallocates a fixed-capacity ring of POD TraceEvent records:
//
//   - with a sink attached, a full ring flushes (streaming JSONL), so
//     arbitrarily long runs trace completely to disk;
//   - without a sink the ring keeps the most recent events (black-box mode)
//     and counts what it overwrote.
//
// Events are recorded in simulation order within a run, so two runs with the
// same seed produce byte-identical traces regardless of thread placement.
// The schema (one JSON object per line) is documented in EXPERIMENTS.md and
// consumed by tools/trace_summarize.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/sink.h"
#include "util/types.h"

namespace libra {

enum class TraceKind : std::uint8_t {
  kEnqueue = 0,   // packet admitted to the bottleneck queue
  kDrop,          // packet dropped (see DropReason in `c`)
  kDeliver,       // packet finished serialization and left the bottleneck
  kSend,          // sender transmitted a packet
  kAck,           // ACK processed by the sender
  kLoss,          // packet declared lost by the sender
  kRate,          // effective pacing rate / cwnd changed
  kStage,         // Libra control-cycle stage transition
  kCycle,         // Libra per-cycle result (utilities + winner)
  kCca,           // CCA-internal event (code is algorithm-specific)
  kRun,           // end of the run (sim time only)
  kEcn,           // packet CE-marked by a queue instead of dropped
  kPolicer,       // token-bucket policer action (drop or mark)
};

enum class DropReason : int { kOverflow = 0, kWire = 1, kCodel = 2, kPolicer = 3 };

/// Fixed-size POD trace record. `a`..`f` are kind-specific payload slots;
/// the JSONL serializer maps them to named fields (see recorder.cc).
struct TraceEvent {
  SimTime t = 0;
  std::int32_t flow = -1;  // -1: link-level event
  TraceKind kind = TraceKind::kEnqueue;
  std::uint64_t seq = 0;
  double a = 0, b = 0, c = 0, d = 0, e = 0, f = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;  // ~4.5 MB of events

  /// Preallocates the ring and starts recording. Safe to call again (keeps
  /// already-buffered events when the capacity is unchanged).
  void enable(std::size_t ring_capacity = kDefaultCapacity);
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Streaming target: when set, a full ring flushes to the sink as JSONL
  /// instead of overwriting its oldest events.
  void set_sink(std::shared_ptr<LineSink> sink) { sink_ = std::move(sink); }

  // --- record points (inline no-ops while disabled) ------------------------

  void enqueue(SimTime t, int flow, std::uint64_t seq, std::int64_t bytes,
               std::int64_t queue_bytes, std::size_t queue_pkts) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kEnqueue, seq, static_cast<double>(bytes),
          static_cast<double>(queue_bytes), static_cast<double>(queue_pkts)});
  }

  void drop(SimTime t, int flow, std::uint64_t seq, std::int64_t bytes,
            std::int64_t queue_bytes, DropReason reason) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kDrop, seq, static_cast<double>(bytes),
          static_cast<double>(queue_bytes), static_cast<double>(reason)});
  }

  void deliver(SimTime t, int flow, std::uint64_t seq, std::int64_t bytes,
               std::int64_t queue_bytes) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kDeliver, seq, static_cast<double>(bytes),
          static_cast<double>(queue_bytes)});
  }

  void send(SimTime t, int flow, std::uint64_t seq, std::int64_t bytes,
            std::int64_t bytes_in_flight) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kSend, seq, static_cast<double>(bytes),
          static_cast<double>(bytes_in_flight)});
  }

  void ack(SimTime t, int flow, std::uint64_t seq, SimDuration rtt,
           std::int64_t bytes, RateBps delivery_rate, std::int64_t bytes_in_flight) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kAck, seq, to_msec(rtt), static_cast<double>(bytes),
          delivery_rate, static_cast<double>(bytes_in_flight)});
  }

  void loss(SimTime t, int flow, std::uint64_t seq, std::int64_t bytes,
            bool from_timeout) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kLoss, seq, static_cast<double>(bytes),
          from_timeout ? 1.0 : 0.0});
  }

  void rate_change(SimTime t, int flow, RateBps pacing_rate, std::int64_t cwnd) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kRate, 0, pacing_rate, static_cast<double>(cwnd)});
  }

  void stage_transition(SimTime t, int flow, int stage) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kStage, 0, static_cast<double>(stage)});
  }

  void cycle_result(SimTime t, int flow, int winner, bool valid, RateBps x_prev,
                    RateBps x_cl, RateBps x_rl, double u_prev, double u_cl,
                    double u_rl) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kCycle,
          static_cast<std::uint64_t>(winner) | (valid ? 4u : 0u), x_prev, x_cl,
          x_rl, u_prev, u_cl, u_rl});
  }

  void cca_event(SimTime t, int flow, int code, double v0 = 0, double v1 = 0) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kCca, static_cast<std::uint64_t>(code), v0, v1});
  }

  /// A queue CE-marked this packet instead of dropping it (droptail
  /// threshold marking or CoDel in mark mode).
  void ecn_mark(SimTime t, int flow, std::uint64_t seq, std::int64_t bytes,
                std::int64_t queue_bytes) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kEcn, seq, static_cast<double>(bytes),
          static_cast<double>(queue_bytes)});
  }

  /// Token-bucket policer decision on a non-conforming packet. `marked` is
  /// true when the policer CE-marked instead of dropping; `tokens` is the
  /// bucket level (bytes) at decision time, before any consumption.
  void policer(SimTime t, int flow, std::uint64_t seq, std::int64_t bytes,
               double tokens, bool marked) {
    if (!enabled_) return;
    push({t, flow, TraceKind::kPolicer, seq, static_cast<double>(bytes), tokens,
          marked ? 1.0 : 0.0});
  }

  /// The run ended at `t`: the last event of every trace run_scenario
  /// records, and trace readers' default window end. It carries sim time
  /// only, so a trace stays a pure function of the seed.
  void run_end(SimTime t) {
    if (!enabled_) return;
    push({t, -1, TraceKind::kRun});
  }

  // --- drain / inspect -----------------------------------------------------

  /// Total events accepted (including ones already flushed or overwritten).
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring wrap-around (only possible with no sink attached).
  std::uint64_t overwritten() const { return overwritten_; }
  std::size_t buffered() const { return size_; }

  /// Buffered events, oldest first.
  std::vector<TraceEvent> snapshot() const;

  /// Writes buffered events to the sink and clears the buffer. No-op without
  /// a sink.
  void flush();

  static void append_jsonl(const TraceEvent& ev, std::string& out);
  static const char* kind_name(TraceKind kind);

 private:
  void push(const TraceEvent& ev) {
    if (size_ == ring_.size()) {
      if (sink_) {
        flush();
      } else {
        ring_[head_] = ev;
        head_ = (head_ + 1) % ring_.size();
        ++overwritten_;
        ++recorded_;
        return;
      }
    }
    ring_[(head_ + size_) % ring_.size()] = ev;
    ++size_;
    ++recorded_;
  }

  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool enabled_ = false;
  std::uint64_t recorded_ = 0;
  std::uint64_t overwritten_ = 0;
  std::shared_ptr<LineSink> sink_;
  std::string line_;  // flush scratch, reused across events
};

}  // namespace libra
