// A flow couples a Sender with the measurement the evaluation needs: exact
// integer counts of its ACKs and losses per 10 ms row of sim time, from which
// every per-flow throughput, delay, loss and rate-over-time figure is read.
// The footprint grows with simulated time, not with the number of ACKs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/sender.h"

namespace libra {

/// Width of the measurement grid, the sender's default tick. Row k holds what
/// happened in [k * kWindowGrid, (k + 1) * kWindowGrid); every window a Flow
/// or Network query reads must start and end on a multiple of it.
inline constexpr SimDuration kWindowGrid = msec(10);

/// One row per grid step, grown as sim time advances; rows past the last
/// write read as zero.
template <typename Row>
class GridRows {
 public:
  /// The row holding sim time `now`.
  Row& at(SimTime now) {
    const auto k = static_cast<std::size_t>(now / kWindowGrid);
    if (k >= rows_.size()) rows_.resize(k + 1);
    return rows_[k];
  }

  /// Indices [first, last) of the stored rows inside the window [t0, t1);
  /// empty when t1 <= t0. Throws std::invalid_argument for a bound that is
  /// negative or off the grid.
  std::pair<std::size_t, std::size_t> span(SimTime t0, SimTime t1) const {
    if (t1 <= t0) return {0, 0};
    if (t0 < 0 || t0 % kWindowGrid != 0 || t1 % kWindowGrid != 0)
      throw std::invalid_argument("window bound off the 10 ms measurement grid");
    const std::size_t first = std::min(static_cast<std::size_t>(t0 / kWindowGrid), rows_.size());
    const std::size_t last = std::min(static_cast<std::size_t>(t1 / kWindowGrid), rows_.size());
    return {first, last};
  }

  const Row& operator[](std::size_t k) const { return rows_[k]; }

 private:
  std::vector<Row> rows_;
};

/// Exact totals of a flow's ACKs and losses over a window.
struct FlowCounts {
  std::int64_t acked_bytes = 0;
  std::int64_t rtt_sum_us = 0;  // per-ACK RTT samples, summed
  std::int64_t acks = 0;
  std::int64_t lost = 0;  // packets declared lost
};

class Flow {
 public:
  Flow(EventQueue& events, SenderConfig config,
       std::unique_ptr<CongestionControl> cca)
      : sender_(std::make_unique<Sender>(events, config, std::move(cca))) {
    sender_->ack_observer = [this](const AckEvent& ev) {
      Row& r = rows_.at(ev.now);
      r.acked_bytes += ev.acked_bytes;
      r.rtt_sum_us += ev.rtt;
      ++r.acks;
    };
    sender_->loss_observer = [this](const LossEvent& ev) { ++rows_.at(ev.now).lost; };
  }

  Sender& sender() { return *sender_; }
  const Sender& sender() const { return *sender_; }

  /// Totals over [t0, t1) (zero when t1 <= t0). Throws std::invalid_argument
  /// for a bound off the grid, as do the queries below.
  FlowCounts counts_in(SimTime t0, SimTime t1) const {
    FlowCounts c;
    const auto [first, last] = rows_.span(t0, t1);
    for (std::size_t k = first; k < last; ++k) {
      const Row& r = rows_[k];
      c.acked_bytes += r.acked_bytes;
      c.rtt_sum_us += r.rtt_sum_us;
      c.acks += r.acks;
      c.lost += r.lost;
    }
    return c;
  }

  /// Goodput over [t0, t1) in bits/s.
  double throughput_in(SimTime t0, SimTime t1) const {
    if (t1 <= t0) return 0.0;
    return static_cast<double>(counts_in(t0, t1).acked_bytes) * 8.0 / to_seconds(t1 - t0);
  }

  /// Mean RTT (ms) over the ACKs in [t0, t1); 0 if there are none.
  double mean_rtt_in(SimTime t0, SimTime t1) const {
    const FlowCounts c = counts_in(t0, t1);
    return c.acks > 0 ? static_cast<double>(c.rtt_sum_us) / (1e3 * static_cast<double>(c.acks))
                      : 0.0;
  }

  /// Lost / (lost + acked) packets over [t0, t1); 0 if there are neither.
  /// Packets still in flight count in neither, so this is at least the
  /// lost / sent ratio of the same packets.
  double loss_rate_in(SimTime t0, SimTime t1) const {
    const FlowCounts c = counts_in(t0, t1);
    const auto lost = static_cast<double>(c.lost);
    const double total = lost + static_cast<double>(c.acks);
    return total > 0 ? lost / total : 0.0;
  }

  /// Goodput (bits/s) per `bin` over [t0, t1): ceil((t1 - t0) / bin) bins,
  /// each divided by the full bin width, so a short last bin reads low.
  /// `bin` must be a positive multiple of the grid and t1 > t0.
  std::vector<double> rate_bins(SimDuration bin, SimTime t0, SimTime t1) const {
    if (bin <= 0 || bin % kWindowGrid != 0 || t1 <= t0)
      throw std::invalid_argument("Flow::rate_bins: bad bin or window");
    const auto [first, last] = rows_.span(t0, t1);
    const auto rows_per_bin = static_cast<std::size_t>(bin / kWindowGrid);
    std::vector<double> bits(static_cast<std::size_t>((t1 - t0 + bin - 1) / bin), 0.0);
    for (std::size_t k = first; k < last; ++k)
      bits[(k - first) / rows_per_bin] += static_cast<double>(rows_[k].acked_bytes);
    for (double& b : bits) b = b * 8.0 / to_seconds(bin);
    return bits;
  }

 private:
  struct Row {
    std::int64_t acked_bytes = 0;
    std::int64_t rtt_sum_us = 0;
    std::int32_t acks = 0;
    std::int32_t lost = 0;
  };

  std::unique_ptr<Sender> sender_;
  GridRows<Row> rows_;
};

}  // namespace libra
