#include "sim/link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/profiler.h"
#include "obs/telemetry.h"

namespace libra {

namespace {
// When the trace momentarily reports (near-)zero capacity, poll again instead
// of computing an infinite serialization time.
constexpr RateBps kMinServiceRate = 1000.0;  // 1 kbps
constexpr SimDuration kStallRetry = msec(5);

// CoDel's control law: the gap to the next drop shrinks with sqrt(count).
SimDuration control_law(SimDuration interval, std::int64_t count) {
  return static_cast<SimDuration>(
      static_cast<double>(interval) / std::sqrt(static_cast<double>(count)));
}
}  // namespace

Link::Link(EventQueue& events, LinkConfig config)
    : events_(events), config_(std::move(config)), rng_(config_.seed) {
  if (!config_.capacity) throw std::invalid_argument("Link: capacity trace required");
  if (config_.buffer_bytes <= 0) throw std::invalid_argument("Link: buffer must be > 0");
  if (config_.codel && config_.codel->target <= 0)
    throw std::invalid_argument("Link: CoDel target must be > 0");
  if (config_.codel && config_.codel->interval <= 0)
    throw std::invalid_argument("Link: CoDel interval must be > 0");
}

bool Link::policer_admits(Packet& pkt) {
  const SimTime now = events_.now();
  if (config_.policer_rate <= 0 || now < config_.policer_start ||
      now >= config_.policer_stop)
    return true;
  // Lazy refill: the bucket starts full the first time the active window is
  // exercised and accrues rate * elapsed between arrivals, capped at burst.
  const double burst = static_cast<double>(config_.policer_burst_bytes);
  if (policer_refill_ < 0) {
    policer_tokens_ = burst;
  } else {
    policer_tokens_ = std::min(
        burst, policer_tokens_ + config_.policer_rate / 8.0 *
                                     to_seconds(now - policer_refill_));
  }
  policer_refill_ = now;
  if (static_cast<double>(pkt.bytes) <= policer_tokens_) {
    policer_tokens_ -= static_cast<double>(pkt.bytes);
    return true;
  }
  // Non-conforming: mark-if-able when configured, else drop. Marked packets
  // proceed to the queue (they still consume link capacity, like a policer
  // deployed in ECN-marking mode); tokens are not consumed either way.
  if (config_.policer_marks && pkt.ecn_capable) {
    pkt.ce_marked = true;
    ++policer_marks_;
    if (recorder_) recorder_->policer(now, pkt.flow_id, pkt.seq, pkt.bytes,
                                      policer_tokens_, /*marked=*/true);
    return true;
  }
  ++drops_policer_;
  if (recorder_) {
    recorder_->policer(now, pkt.flow_id, pkt.seq, pkt.bytes, policer_tokens_,
                       /*marked=*/false);
    recorder_->drop(now, pkt.flow_id, pkt.seq, pkt.bytes, queue_bytes_,
                    DropReason::kPolicer);
  }
  if (drop_) drop_(pkt);
  return false;
}

void Link::send(Packet pkt) {
  PROF_SCOPE("link.enqueue");
  if (!policer_admits(pkt)) return;
  // Stochastic wire loss models random (non-congestive) drops; it happens
  // before queueing, exactly like Mahimahi's --uplink-loss.
  if (config_.stochastic_loss > 0 && rng_.chance(config_.stochastic_loss)) {
    ++drops_wire_;
    if (recorder_) recorder_->drop(events_.now(), pkt.flow_id, pkt.seq, pkt.bytes,
                                   queue_bytes_, DropReason::kWire);
    if (drop_) drop_(pkt);
    return;
  }
  if (queue_bytes_ + pkt.bytes > config_.buffer_bytes) {
    ++drops_overflow_;
    if (recorder_) recorder_->drop(events_.now(), pkt.flow_id, pkt.seq, pkt.bytes,
                                   queue_bytes_, DropReason::kOverflow);
    if (drop_) drop_(pkt);
    return;
  }
  // DCTCP-style step marking: an ECT packet arriving to a standing queue of
  // at least K bytes is CE-marked on admission (instantaneous occupancy, per
  // the DCTCP paper's switch model).
  if (config_.ecn_threshold_bytes > 0 && pkt.ecn_capable && !pkt.ce_marked &&
      queue_bytes_ >= config_.ecn_threshold_bytes) {
    pkt.ce_marked = true;
    ++ecn_marks_;
    if (recorder_) recorder_->ecn_mark(events_.now(), pkt.flow_id, pkt.seq,
                                       pkt.bytes, queue_bytes_);
  }
  pkt.enqueue_time = events_.now();
  queue_bytes_ += pkt.bytes;
  if (queue_bytes_ > max_queue_bytes_) max_queue_bytes_ = queue_bytes_;
  queue_.push_back(pkt);
  if (recorder_) recorder_->enqueue(pkt.enqueue_time, pkt.flow_id, pkt.seq,
                                    pkt.bytes, queue_bytes_, queue_.size());
  if (!transmitting_) schedule_dequeue();
}

void Link::schedule_dequeue() {
  if (queue_.empty()) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  RateBps rate = config_.capacity->rate_at(events_.now());
  if (rate < kMinServiceRate) {
    // Capacity outage: re-check shortly; the head packet stays queued.
    events_.schedule_in(kStallRetry, [this] { schedule_dequeue(); });
    return;
  }
  SimDuration tx = transmission_time(queue_.front().bytes, rate);
  events_.schedule_in(tx, [this] { dequeue_head(); });
}

Packet Link::pop_head() {
  Packet pkt = queue_.front();
  queue_.pop_front();
  queue_bytes_ -= pkt.bytes;
  return pkt;
}

void Link::dequeue_head() {
  Packet pkt = pop_head();
  // CoDel decides at dequeue: a head it drops is replaced by the next one at
  // the same instant, until one survives or the queue runs dry.
  while (config_.codel && codel_drop_head(pkt)) {
    if (queue_.empty()) {
      transmitting_ = false;
      return;
    }
    pkt = pop_head();
  }
  delivered_bytes_ += pkt.bytes;
  if (recorder_) recorder_->deliver(events_.now(), pkt.flow_id, pkt.seq, pkt.bytes,
                                    queue_bytes_);
  // Propagation happens after serialization; delivery of this packet and the
  // start of the next transmission are independent events.
  if (deliver_) {
    Packet delivered = pkt;
    events_.schedule_in(config_.propagation_delay,
                        [this, delivered] { deliver_(delivered); });
  }
  schedule_dequeue();
}

bool Link::codel_drop_head(Packet& pkt) {
  if (!codel_fires(pkt)) return false;
  if (config_.codel->ecn_mark && pkt.ecn_capable) {
    // Mark mode: the firing CE-marks the head, which is then forwarded.
    // codel_fires() already advanced count/drop_next_ exactly as it would
    // for a drop, so the control-law schedule is mode-invariant.
    pkt.ce_marked = true;
    ++codel_marks_;
    if (recorder_) recorder_->ecn_mark(events_.now(), pkt.flow_id, pkt.seq,
                                       pkt.bytes, queue_bytes_);
    return false;
  }
  ++codel_drops_;
  if (recorder_) recorder_->drop(events_.now(), pkt.flow_id, pkt.seq, pkt.bytes,
                                 queue_bytes_, DropReason::kCodel);
  if (drop_) drop_(pkt);
  return true;
}

bool Link::codel_fires(const Packet& pkt) {
  const CodelParams& p = *config_.codel;
  const SimTime now = events_.now();
  SimDuration sojourn = now - pkt.enqueue_time;

  if (sojourn < p.target || queue_bytes_ < 2 * kDefaultPacketBytes) {
    // Sojourn dipped below target: leave dropping state.
    first_above_ = 0;
    dropping_ = false;
    return false;
  }

  if (!dropping_) {
    if (first_above_ == 0) {
      first_above_ = now + p.interval;
      return false;
    }
    if (now < first_above_) return false;
    // Sojourn exceeded target for a full interval: start dropping.
    dropping_ = true;
    // Control-law memory (RFC 8289 §4.2 / Appendix A): if dropping stopped
    // only recently, restart from the drop *rate added by the previous
    // dropping episode* (count - lastcount), not from the stale absolute
    // count; after a long non-dropping interval restart from 1.
    std::int64_t delta = drop_count_ - last_count_;
    drop_count_ = (delta > 1 && now - drop_next_ < 16 * p.interval) ? delta : 1;
    drop_next_ = now + control_law(p.interval, drop_count_);
    last_count_ = drop_count_;
    return true;
  }

  if (now >= drop_next_) {
    ++drop_count_;
    // Schedule from the previous deadline, not from now: late dequeues must
    // not stretch the drop cadence below what the control law demands
    // (RFC 8289 Appendix A re-runs the law on drop_next_).
    drop_next_ += control_law(p.interval, drop_count_);
    return true;
  }
  return false;
}

void Link::fill_telemetry(TelemetryQueueSample& s, SimTime now) const {
  s.depth_bytes = static_cast<double>(queue_bytes_);
  s.depth_packets = static_cast<double>(queue_.size());
  s.sojourn_ms = queue_.empty() ? 0.0 : to_msec(now - queue_.front().enqueue_time);
  s.drops = static_cast<double>(drops_overflow_ + drops_wire_ + drops_policer_ +
                                codel_drops_);
}

}  // namespace libra
