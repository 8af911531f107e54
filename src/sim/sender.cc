#include "sim/sender.h"

#include <algorithm>
#include <stdexcept>

#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "sim/flow_soa.h"

namespace libra {

Sender::Sender(EventQueue& events, SenderConfig config,
               std::unique_ptr<CongestionControl> cca)
    : events_(events), config_(config), cca_(std::move(cca)) {
  if (!cca_) throw std::invalid_argument("Sender: congestion controller required");
  if (config_.packet_bytes <= 0) throw std::invalid_argument("Sender: bad packet size");
}

void Sender::start() {
  if (started_) return;
  started_ = true;
  SimTime at = std::max(config_.start_time, events_.now());
  events_.schedule_at(at, [this] {
    running_ = true;
    next_send_time_ = events_.now();
    maybe_send();
    if (config_.external_tick) {
      sync_hot();  // the owner's shard scan takes over from here
    } else {
      on_tick();
    }
  });
}

void Sender::bind_fleet_slot(FleetFlowHot* hot, std::size_t idx) {
  hot_ = hot;
  hot_idx_ = idx;
  wants_tick_ = cca_->wants_tick();
  if (hot_) {
    hot_->stop_time[idx] = config_.stop_time;
    sync_hot();
  }
}

void Sender::run_tick(SimTime now) {
  if (now >= config_.stop_time) {
    sync_hot();
    return;
  }
  detect_rto_losses();
  cca_->on_tick(now);
  if (recorder_) maybe_record_rate();
  maybe_send();
  maybe_finish();
  sync_hot();
}

void Sender::maybe_finish() {
  if (finished_time_ >= 0 || config_.byte_budget < 0) return;
  if (budget_exhausted() && outstanding_.empty())
    finished_time_ = events_.now();
}

// Refreshes this sender's SoA row. Called at the end of every state-changing
// entry point (ACK delivery, tick, pacing-timer send, start), so the shard
// scan's skip decision is always based on post-event state.
void Sender::sync_hot() {
  if (!hot_) return;
  const std::size_t i = hot_idx_;
  hot_->rto_deadline[i] = outstanding_.empty()
                              ? kSimTimeMax
                              : outstanding_.front().sent_time + rto();
  hot_->send_headroom[i] =
      budget_exhausted() ? 0 : cca_->cwnd_bytes() - bytes_in_flight_;
  std::uint8_t flags = 0;
  if (running_ && finished_time_ < 0) flags |= FleetFlowHot::kActive;
  if (wants_tick_) flags |= FleetFlowHot::kWantsTick;
  hot_->flags[i] = flags;
}

void Sender::fill_telemetry(TelemetryFlowSample& sample) const {
  sample.cwnd_bytes = static_cast<double>(cca_->cwnd_bytes());
  sample.pacing_rate_bps = effective_pacing_rate();
  sample.srtt_ms = to_msec(srtt_);
  sample.inflight_bytes = static_cast<double>(bytes_in_flight_);
  sample.acked_bytes = static_cast<double>(delivered_bytes_);
  sample.lost_packets = static_cast<double>(packets_lost_);
  sample.stage = static_cast<double>(cca_->telemetry_stage());
}

void Sender::maybe_record_rate() {
  // One trace record per *change* of the effective control outputs, emitted
  // after the CCA processed the triggering event — this is the uniform
  // rate/cwnd instrumentation for every algorithm family.
  if (!recorder_ || !recorder_->enabled()) return;
  RateBps rate = cca_->pacing_rate();
  std::int64_t cwnd = cca_->cwnd_bytes();
  if (rate == last_recorded_rate_ && cwnd == last_recorded_cwnd_) return;
  last_recorded_rate_ = rate;
  last_recorded_cwnd_ = cwnd;
  recorder_->rate_change(events_.now(), config_.flow_id, rate, cwnd);
}

RateBps Sender::effective_pacing_rate() const {
  RateBps rate = cca_->pacing_rate();
  if (rate <= 0) {
    // Window-driven CCA: pace one cwnd per SRTT with a 25% headroom so the
    // window, not the pacer, is the binding constraint (as Linux does).
    if (srtt_ <= 0) return 0;  // pre-handshake: send unpaced up to cwnd
    rate = 1.25 * static_cast<double>(cca_->cwnd_bytes()) * 8.0 / to_seconds(srtt_);
  }
  return std::max(rate, config_.min_pacing_rate);
}

void Sender::maybe_send() {
  const SimTime now = events_.now();
  if (now < config_.start_time || now >= config_.stop_time) return;

  while (true) {
    if (budget_exhausted()) return;  // finite flow: everything is on the wire
    if (bytes_in_flight_ + config_.packet_bytes > cca_->cwnd_bytes()) return;

    RateBps rate = effective_pacing_rate();
    if (rate > 0) {
      // Don't accumulate sending credit across idle periods.
      if (next_send_time_ < now) next_send_time_ = now;
      if (next_send_time_ > now) {
        if (!send_event_scheduled_) {
          send_event_scheduled_ = true;
          events_.schedule_at(next_send_time_, [this] {
            send_event_scheduled_ = false;
            maybe_send();
            sync_hot();
          });
        }
        return;
      }
      transmit_one();
      next_send_time_ += transmission_time(config_.packet_bytes, rate);
    } else {
      transmit_one();  // unpaced: window-limited burst
    }
  }
}

void Sender::transmit_one() {
  PROF_SCOPE("sender.send");
  const SimTime now = events_.now();
  Packet pkt;
  pkt.flow_id = config_.flow_id;
  pkt.seq = next_seq_++;
  pkt.bytes = config_.packet_bytes;
  pkt.sent_time = now;
  pkt.delivered_at_send = delivered_bytes_;
  pkt.delivered_time_at_send = delivered_time_ > 0 ? delivered_time_ : now;
  pkt.ecn_capable = config_.ecn_capable;

  outstanding_.push(pkt.seq, {now, pkt.bytes, pkt.delivered_at_send,
                              pkt.delivered_time_at_send});
  bytes_in_flight_ += pkt.bytes;
  ++packets_sent_;

  SendEvent ev{now, pkt.seq, pkt.bytes, bytes_in_flight_};
  cca_->on_packet_sent(ev);
  if (send_observer) send_observer(ev);
  if (recorder_) recorder_->send(now, config_.flow_id, pkt.seq, pkt.bytes, bytes_in_flight_);
  if (transmit_) transmit_(pkt);
}

void Sender::update_rtt(SimDuration sample) {
  if (sample <= 0) sample = 1;
  if (min_rtt_ == 0 || sample < min_rtt_) min_rtt_ = sample;
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    SimDuration err = std::abs(srtt_ - sample);
    rttvar_ += (err - rttvar_) / 4;
    srtt_ += (sample - srtt_) / 8;
  }
}

SimDuration Sender::rto() const {
  if (srtt_ == 0) return sec(1);
  SimDuration candidate = srtt_ + std::max<SimDuration>(4 * rttvar_, msec(10));
  return std::clamp<SimDuration>(candidate, config_.min_rto, sec(10));
}

void Sender::on_ack_packet(const Packet& pkt) {
  PROF_SCOPE("sender.ack");
  const SimTime now = events_.now();
  const Outstanding* found = outstanding_.find(pkt.seq);
  if (!found) return;  // already declared lost: spurious

  const Outstanding info = *found;
  outstanding_.erase(pkt.seq);
  bytes_in_flight_ -= info.bytes;
  ++packets_acked_;

  SimDuration rtt = now - info.sent_time;
  update_rtt(rtt);
  rtt_sum_ += rtt;
  delivered_bytes_ += info.bytes;
  delivered_time_ = now;

  RateBps delivery_rate = 0;
  SimDuration interval = now - info.delivered_time_at_send;
  if (interval > 0 && delivered_bytes_ > info.delivered_at_send) {
    delivery_rate = static_cast<double>(delivered_bytes_ - info.delivered_at_send) *
                    8.0 / to_seconds(interval);
  }

  highest_acked_ = std::max(highest_acked_, pkt.seq);
  any_acked_ = true;

  AckEvent ev{now, pkt.seq, info.sent_time, rtt, info.bytes,
              bytes_in_flight_, delivery_rate, min_rtt_};
  // The ACK carries the delivered packet back, so the CE echo is simply the
  // packet's own mark (receiver echo with zero additional state).
  ev.ecn_ce = pkt.ce_marked;
  cca_->on_ack(ev);
  if (ack_observer) ack_observer(ev);
  if (recorder_) {
    recorder_->ack(now, config_.flow_id, pkt.seq, rtt, info.bytes, delivery_rate,
                   bytes_in_flight_);
    maybe_record_rate();
  }

  detect_packet_threshold_losses();
  maybe_send();
  maybe_finish();
  sync_hot();
}

void Sender::detect_packet_threshold_losses() {
  if (!any_acked_) return;
  // FIFO bottleneck + in-order ACK path: a packet trailing the highest ACK by
  // the reorder threshold is gone.
  while (!outstanding_.empty()) {
    std::uint64_t seq = outstanding_.front_seq();
    if (seq + static_cast<std::uint64_t>(config_.reorder_threshold) > highest_acked_)
      break;
    Outstanding info = outstanding_.front();
    outstanding_.erase(seq);
    declare_lost(seq, info, /*from_timeout=*/false);
  }
}

void Sender::detect_rto_losses() {
  const SimTime now = events_.now();
  const SimDuration timeout = rto();
  while (!outstanding_.empty()) {
    if (now - outstanding_.front().sent_time < timeout) break;
    std::uint64_t seq = outstanding_.front_seq();
    Outstanding info = outstanding_.front();
    outstanding_.erase(seq);
    declare_lost(seq, info, /*from_timeout=*/true);
  }
}

void Sender::declare_lost(std::uint64_t seq, const Outstanding& info,
                          bool from_timeout) {
  bytes_in_flight_ -= info.bytes;
  ++packets_lost_;
  LossEvent ev{events_.now(), seq, info.sent_time, info.bytes,
               bytes_in_flight_, from_timeout};
  cca_->on_loss(ev);
  if (loss_observer) loss_observer(ev);
  if (recorder_) {
    recorder_->loss(ev.now, config_.flow_id, seq, info.bytes, from_timeout);
    maybe_record_rate();
  }
}

void Sender::on_tick() {
  const SimTime now = events_.now();
  if (now >= config_.stop_time) return;
  run_tick(now);
  events_.schedule_in(config_.tick_interval, [this] { on_tick(); });
}

}  // namespace libra
