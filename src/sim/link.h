// Bottleneck link: a byte-limited FIFO queue with trace-driven time-varying
// capacity, stochastic wire loss and fixed propagation delay. This is the
// simulator's stand-in for a Mahimahi link shell.
//
// The queue discipline is droptail, or CoDel when `LinkConfig::codel` is set
// (Nichols & Jacobson, CACM 2012; RFC 8289). The paper motivates Libra by
// noting CUBIC can only keep queueing delay low with AQM support like CoDel,
// "which requires changes in the network devices and incurs extra costs"
// (Sec. 2); bench_codel_ablation tests that claim. CoDel tracks each packet's
// sojourn time; once the sojourn stays above `target` for an `interval`, it
// enters dropping state and drops head packets at intervals shrinking with
// the square root of the drop count (the control law), until the sojourn
// falls below target.
//
// Cache-line aligned, so the per-packet counters of one fleet hop never share
// a line with the next hop's link, which another shard writes.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "obs/recorder.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "trace/rate_trace.h"
#include "util/fifo_ring.h"
#include "util/rng.h"

namespace libra {

struct TelemetryQueueSample;

/// CoDel settings; see the file comment for the algorithm.
struct CodelParams {
  SimDuration target = msec(5);      // acceptable standing sojourn
  SimDuration interval = msec(100);  // sliding window (~worst-case RTT)
  /// RFC 8289 §4.1: when set, a control-law firing CE-marks an ECT head
  /// packet (which is then forwarded) instead of dropping it. The dropping
  /// state machine — count escalation, drop_next_ scheduling, re-entry
  /// memory — is shared verbatim between the two modes; only the action
  /// taken on a firing differs. Non-ECT packets are still dropped.
  bool ecn_mark = false;
};

struct LinkConfig {
  std::shared_ptr<RateTrace> capacity;          // required
  std::int64_t buffer_bytes = 150 * 1000;       // queue limit (also behind CoDel)
  SimDuration propagation_delay = msec(15);     // one-way, after serialization
  double stochastic_loss = 0.0;                 // P(drop on the wire)
  std::uint64_t seed = 1;

  /// ECN marking threshold K (bytes): an ECT packet arriving while the
  /// instantaneous queue occupancy is >= K is CE-marked instead of relying
  /// on overflow drops (DCTCP-style step marking). 0 disables marking.
  /// Non-ECT packets are unaffected (they still tail-drop at the buffer).
  std::int64_t ecn_threshold_bytes = 0;

  /// Token-bucket policer at the link ingress (before queueing), modeling
  /// ISP rate enforcement: the bucket refills at `policer_rate` bits/s up to
  /// `policer_burst_bytes`; a packet that does not fit the bucket is dropped
  /// — or CE-marked when `policer_marks` is set and the packet is ECT. The
  /// policer is active over [policer_start, policer_stop); outside the
  /// window packets pass untouched (and the bucket re-fills on re-entry).
  /// policer_rate == 0 disables the policer entirely.
  RateBps policer_rate = 0;
  std::int64_t policer_burst_bytes = 30 * 1000;
  bool policer_marks = false;
  SimTime policer_start = 0;
  SimTime policer_stop = kSimTimeMax;

  /// Queue discipline: droptail when unset, CoDel when set.
  std::optional<CodelParams> codel;

  /// True when any setting above can CE-mark an ECT packet. The engines then
  /// stamp every sender ECT, so the marks reach the CCAs.
  bool marks_ecn() const {
    return ecn_threshold_bytes > 0 || policer_marks || (codel && codel->ecn_mark);
  }
};

class alignas(64) Link {
 public:
  /// Called when a packet exits the far end of the link.
  using DeliverFn = std::function<void(const Packet&)>;
  /// Called when a packet is dropped (policer, wire loss, queue overflow or
  /// CoDel).
  using DropFn = std::function<void(const Packet&)>;

  Link(EventQueue& events, LinkConfig config);
  // Scheduled events and callers' callbacks hold `this`.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_drop(DropFn fn) { drop_ = std::move(fn); }
  void set_recorder(FlightRecorder* rec) { recorder_ = rec; }

  /// Offers a packet to the link; tail-drops if the buffer is full.
  void send(Packet pkt);

  std::int64_t queue_bytes() const { return queue_bytes_; }
  const RateTrace& capacity() const { return *config_.capacity; }
  const LinkConfig& config() const { return config_; }

  /// Total bytes that exited the link (for utilization accounting).
  std::int64_t delivered_bytes() const { return delivered_bytes_; }

  /// Telemetry read point: queue depth, the exact sojourn of the head packet
  /// at `now` (every packet is stamped at enqueue; 0 when the queue is
  /// empty) and every packet the link has discarded so far.
  void fill_telemetry(TelemetryQueueSample& s, SimTime now) const;

  // Always-on telemetry (cheap integer updates on the existing paths).
  std::int64_t drops_overflow() const { return drops_overflow_; }
  std::int64_t drops_wire() const { return drops_wire_; }
  std::int64_t drops_policer() const { return drops_policer_; }
  std::int64_t ecn_marks() const { return ecn_marks_; }
  std::int64_t policer_marks() const { return policer_marks_; }
  std::int64_t max_queue_bytes() const { return max_queue_bytes_; }

  // CoDel state (all zero on a droptail link).
  std::int64_t codel_drops() const { return codel_drops_; }
  /// Control-law firings resolved as CE marks (ecn_mark mode only).
  std::int64_t codel_marks() const { return codel_marks_; }
  /// Current control-law count (observability for the RFC 8289 §4.2
  /// re-entry tests); 0 until the first dropping episode.
  std::int64_t codel_drop_count() const { return drop_count_; }
  bool codel_dropping() const { return dropping_; }

 private:
  void schedule_dequeue();
  void dequeue_head();
  Packet pop_head();
  /// True when the packet clears the (active) policer; consumes tokens on
  /// conformance, records the action otherwise.
  bool policer_admits(Packet& pkt);
  /// CoDel's verdict on the popped head: true when it dropped the packet. A
  /// firing in mark mode CE-marks an ECT head instead and returns false.
  bool codel_drop_head(Packet& pkt);
  /// Advances the control-law state machine; true when it fires on `pkt`.
  bool codel_fires(const Packet& pkt);

  EventQueue& events_;
  LinkConfig config_;
  Rng rng_;
  FifoRing<Packet> queue_;
  std::int64_t queue_bytes_ = 0;
  std::int64_t delivered_bytes_ = 0;
  std::int64_t drops_overflow_ = 0;
  std::int64_t drops_wire_ = 0;
  std::int64_t drops_policer_ = 0;
  std::int64_t ecn_marks_ = 0;
  std::int64_t policer_marks_ = 0;
  std::int64_t max_queue_bytes_ = 0;  // high-water mark of queue_bytes_
  double policer_tokens_ = 0;      // bytes; filled on first active use
  SimTime policer_refill_ = -1;    // last refill instant; <0: bucket untouched
  bool transmitting_ = false;
  DeliverFn deliver_;
  DropFn drop_;
  FlightRecorder* recorder_ = nullptr;

  // CoDel state.
  bool dropping_ = false;
  SimTime first_above_ = 0;
  SimTime drop_next_ = 0;
  std::int64_t drop_count_ = 0;
  std::int64_t last_count_ = 0;  // count at the last dropping-state entry
  std::int64_t codel_drops_ = 0;
  std::int64_t codel_marks_ = 0;
};

}  // namespace libra
