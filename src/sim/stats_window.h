// Send-window-attributed statistics.
//
// Libra evaluation and PCC monitor intervals test candidate rates whose feedback (ACKs/losses)
// only returns ~1 RTT later, during the exploitation stage. A StatsWindow
// captures everything about packets *sent* within [send_start, send_end],
// regardless of when their feedback arrives, so utilities are attributed to
// the right decision.
#pragma once

#include <cmath>
#include <vector>

#include "rl/matrix.h"
#include "sim/congestion_control.h"
#include "stats/utility_fn.h"

namespace libra {

class StatsWindow {
 public:
  StatsWindow(SimTime send_start, SimTime send_end, RateBps applied_rate)
      : send_start_(send_start), send_end_(send_end), applied_rate_(applied_rate) {}

  bool covers(SimTime sent_time) const {
    return sent_time >= send_start_ && sent_time < send_end_;
  }

  void on_ack(const AckEvent& ev) {
    if (!covers(ev.sent_time)) return;
    acked_bytes_ += ev.acked_bytes;
    ++acks_;
    if (first_ack_ == 0) first_ack_ = ev.now;
    last_ack_ = ev.now;
    rtt_samples_.push_back({to_seconds(ev.now), to_seconds(ev.rtt)});
  }

  /// Ends the send window early (exploration can exit before its deadline).
  void close(SimTime end) { send_end_ = std::min(send_end_, end); }

  void on_loss(const LossEvent& ev) {
    if (!covers(ev.sent_time)) return;
    ++losses_;
  }

  int acks() const { return acks_; }
  int losses() const { return losses_; }
  RateBps applied_rate() const { return applied_rate_; }
  SimTime send_end() const { return send_end_; }

  /// Achieved throughput of the window's packets, measured as the receive
  /// rate over the ACK arrival span (PCC-style). Self-normalizing: feedback
  /// still in flight when the cycle closes shrinks the span too, so truncated
  /// collection does not bias against higher-rate candidates.
  double throughput_bps() const {
    SimDuration ack_span = last_ack_ - first_ack_;
    if (acks_ >= 2 && ack_span > 0)
      return static_cast<double>(acked_bytes_) * 8.0 / to_seconds(ack_span);
    SimDuration span = send_end_ - send_start_;
    return span > 0 ? static_cast<double>(acked_bytes_) * 8.0 / to_seconds(span) : 0;
  }

  double loss_rate() const {
    int total = acks_ + losses_;
    return total > 0 ? static_cast<double>(losses_) / total : 0.0;
  }

  /// Least-squares d(RTT)/dt over the window's ACKs (dimensionless).
  double rtt_gradient() const {
    return ls_slope(reinterpret_cast<const double*>(rtt_samples_.data()),
                    rtt_samples_.size());
  }

  /// RTT gradient with PCC's latency-noise filter applied: tiny slopes are
  /// jitter (competing sawtooth traffic, scheduling noise), and with beta in
  /// the hundreds they would otherwise dominate the utility and starve the
  /// flow. Only sustained queue growth should register.
  double filtered_rtt_gradient(double noise_floor = 0.02) const {
    double g = rtt_gradient();
    return std::abs(g) < noise_floor ? 0.0 : g;
  }

  /// Eq. 1 utility of this window's behaviour.
  double utility_value(const UtilityParams& p) const {
    return utility(p, throughput_bps() / 1e6, filtered_rtt_gradient(), loss_rate());
  }

 private:
  // Two packed doubles: the interleaved {t, y} layout ls_slope scans.
  struct RttSample { double t; double rtt; };
  static_assert(sizeof(RttSample) == 2 * sizeof(double));
  SimTime send_start_;
  SimTime send_end_;
  RateBps applied_rate_;
  SimTime first_ack_ = 0;
  SimTime last_ack_ = 0;
  std::int64_t acked_bytes_ = 0;
  int acks_ = 0;
  int losses_ = 0;
  std::vector<RttSample> rtt_samples_;
};

}  // namespace libra
