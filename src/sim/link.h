// Bottleneck link with a droptail (FIFO, byte-limited) queue, trace-driven
// time-varying capacity, stochastic wire loss and fixed propagation delay.
// This is the simulator's stand-in for a Mahimahi link shell.
//
// Cache-line aligned, so the per-packet counters of one fleet hop never share
// a line with the next hop's link, which another shard writes.
#pragma once

#include <functional>
#include <memory>

#include "obs/recorder.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "trace/rate_trace.h"
#include "util/fifo_ring.h"
#include "util/rng.h"

namespace libra {

struct LinkConfig {
  std::shared_ptr<RateTrace> capacity;          // required
  std::int64_t buffer_bytes = 150 * 1000;       // droptail queue limit
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
};

class alignas(64) DropTailLink {
 public:
  /// Called when a packet exits the far end of the link.
  using DeliverFn = std::function<void(const Packet&)>;
  /// Called when a packet is dropped (queue overflow or stochastic loss).
  using DropFn = std::function<void(const Packet&)>;

  DropTailLink(EventQueue& events, LinkConfig config);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void set_drop(DropFn fn) { drop_ = std::move(fn); }
  void set_recorder(FlightRecorder* rec) { recorder_ = rec; }

  /// Offers a packet to the link; tail-drops if the buffer is full.
  void send(Packet pkt);

  std::int64_t queue_bytes() const { return queue_bytes_; }
  std::size_t queue_packets() const { return queue_.size(); }
  const RateTrace& capacity() const { return *config_.capacity; }
  const LinkConfig& config() const { return config_; }

  /// Total bytes that exited the link (for utilization accounting).
  std::int64_t delivered_bytes() const { return delivered_bytes_; }

  // Always-on telemetry (cheap integer updates on the existing paths).
  std::int64_t drops_overflow() const { return drops_overflow_; }
  std::int64_t drops_wire() const { return drops_wire_; }
  std::int64_t drops_policer() const { return drops_policer_; }
  std::int64_t ecn_marks() const { return ecn_marks_; }
  std::int64_t policer_marks() const { return policer_marks_; }
  std::int64_t max_queue_bytes() const { return max_queue_bytes_; }

 private:
  void schedule_dequeue();
  void dequeue_head();
  /// True when the packet clears the (active) policer; consumes tokens on
  /// conformance, records the action otherwise.
  bool policer_admits(Packet& pkt);

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
};

}  // namespace libra
