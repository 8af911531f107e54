// Monitor-interval (MI) statistics collector.
//
// Rate-based and learned CCAs act once per MI rather than per ACK. The
// collector aggregates everything the paper's nine state candidates (Tab. 1)
// and the utility/reward functions need: throughput, RTT statistics, the RTT
// gradient (least-squares slope of RTT over time), loss rate, delivery rate,
// and the inter-send / inter-ACK gap EWMAs.
#pragma once

#include <vector>

#include "rl/matrix.h"
#include "sim/congestion_control.h"
#include "util/ewma.h"

namespace libra {

struct MiReport {
  SimTime start = 0;
  SimTime end = 0;
  int sends = 0;
  int acks = 0;
  int losses = 0;
  double throughput_bps = 0;     // acked bytes over the MI
  double avg_rtt_s = 0;
  double last_rtt_s = 0;
  double min_rtt_s = 0;          // flow-lifetime minimum
  double rtt_gradient = 0;       // d(RTT)/dt, dimensionless
  double loss_rate = 0;          // losses / (acks + losses)
  double avg_delivery_bps = 0;   // mean of per-ACK delivery-rate samples
  double ack_gap_ewma_s = 0;     // state candidate (i)
  double send_gap_ewma_s = 0;    // state candidate (ii)
  double sent_acked_ratio = 0;   // state candidate (v)

  SimDuration duration() const { return end - start; }
};

class MiCollector {
 public:
  void on_send(const SendEvent& ev) {
    if (last_send_time_ > 0)
      send_gap_ewma_.update(to_seconds(ev.now - last_send_time_));
    last_send_time_ = ev.now;
    ++sends_;
  }

  void on_ack(const AckEvent& ev) {
    if (last_ack_time_ > 0)
      ack_gap_ewma_.update(to_seconds(ev.now - last_ack_time_));
    last_ack_time_ = ev.now;
    ++acks_;
    acked_bytes_ += ev.acked_bytes;
    rtt_sum_s_ += to_seconds(ev.rtt);
    last_rtt_s_ = to_seconds(ev.rtt);
    min_rtt_s_ = to_seconds(ev.min_rtt);
    if (ev.delivery_rate > 0) {
      delivery_sum_ += ev.delivery_rate;
      ++delivery_samples_;
    }
    rtt_samples_.push_back({to_seconds(ev.now), to_seconds(ev.rtt)});
  }

  void on_loss(const LossEvent&) { ++losses_; }

  bool has_acks() const { return acks_ > 0; }

  /// Closes the current MI at `now` and resets per-MI accumulators. Gap EWMAs
  /// and last-RTT carry across intervals (they are long-running state).
  MiReport finish(SimTime now) {
    MiReport r;
    r.start = mi_start_;
    r.end = now;
    r.sends = sends_;
    r.acks = acks_;
    r.losses = losses_;
    SimDuration d = now - mi_start_;
    r.throughput_bps = d > 0 ? static_cast<double>(acked_bytes_) * 8.0 / to_seconds(d) : 0;
    r.avg_rtt_s = acks_ > 0 ? rtt_sum_s_ / acks_ : last_rtt_s_;
    r.last_rtt_s = last_rtt_s_;
    r.min_rtt_s = min_rtt_s_;
    r.rtt_gradient = rtt_slope();
    r.loss_rate = (acks_ + losses_) > 0
                      ? static_cast<double>(losses_) / static_cast<double>(acks_ + losses_)
                      : 0;
    r.avg_delivery_bps = delivery_samples_ > 0 ? delivery_sum_ / delivery_samples_ : 0;
    r.ack_gap_ewma_s = ack_gap_ewma_.value();
    r.send_gap_ewma_s = send_gap_ewma_.value();
    r.sent_acked_ratio = acks_ > 0 ? static_cast<double>(sends_) / acks_ : 1.0;

    mi_start_ = now;
    sends_ = acks_ = losses_ = 0;
    acked_bytes_ = 0;
    rtt_sum_s_ = 0;
    delivery_sum_ = 0;
    delivery_samples_ = 0;
    rtt_samples_.clear();
    return r;
  }

 private:
  /// Least-squares slope of (time, RTT); both in seconds, so dimensionless.
  double rtt_slope() const {
    return ls_slope(reinterpret_cast<const double*>(rtt_samples_.data()),
                    rtt_samples_.size());
  }

  // Two packed doubles: the interleaved {t, y} layout ls_slope scans.
  struct RttSample { double t; double rtt; };
  static_assert(sizeof(RttSample) == 2 * sizeof(double));

  SimTime mi_start_ = 0;
  int sends_ = 0, acks_ = 0, losses_ = 0;
  std::int64_t acked_bytes_ = 0;
  double rtt_sum_s_ = 0, last_rtt_s_ = 0, min_rtt_s_ = 0;
  double delivery_sum_ = 0;
  int delivery_samples_ = 0;
  SimTime last_send_time_ = 0, last_ack_time_ = 0;
  Ewma ack_gap_ewma_{0.25};
  Ewma send_gap_ewma_{0.25};
  std::vector<RttSample> rtt_samples_;
};

}  // namespace libra
