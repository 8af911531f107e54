// Transport sender endpoint.
//
// Models a backlogged (always-has-data) flow: QUIC-style monotonically
// increasing packet numbers, per-packet ACKs, packet-threshold and
// RTO-based loss detection, SRTT/RTTVAR estimation, BBR-style delivery-rate
// sampling, and token-less pacing driven by the congestion controller's
// pacing rate (or derived from cwnd/SRTT for purely window-based CCAs).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/congestion_control.h"
#include "sim/event_queue.h"
#include "sim/packet.h"

namespace libra {

struct TelemetryFlowSample;
struct FleetFlowHot;

struct SenderConfig {
  int flow_id = 0;
  std::int64_t packet_bytes = kDefaultPacketBytes;
  SimTime start_time = 0;
  SimTime stop_time = kSimTimeMax;
  SimDuration tick_interval = msec(10);
  SimDuration min_rto = msec(300);
  /// Packet-number distance after which an unacked packet is declared lost.
  int reorder_threshold = 3;
  /// Floor on the effective pacing rate so a misbehaving controller cannot
  /// silence the flow entirely (matches the minimum rates learned agents use).
  RateBps min_pacing_rate = kbps(64);
  /// Total bytes the flow has to send; negative means backlogged (infinite).
  /// A finite flow stops initiating sends once the budget is on the wire and
  /// finishes when every budgeted packet is acked or declared lost (the sim
  /// never retransmits — QUIC-style abstract stream).
  std::int64_t byte_budget = -1;
  /// Fleet-engine mode: the owner drives run_tick() from its shard scan
  /// instead of this sender scheduling its own periodic timer event.
  bool external_tick = false;
  /// Stamp outgoing packets ECT so ECN-enabled queues mark them (CE) instead
  /// of dropping; CE comes back on the ACK as AckEvent::ecn_ce. Both engines
  /// set it from their links (LinkConfig::marks_ecn).
  bool ecn_capable = false;
};

class Sender {
 public:
  using TransmitFn = std::function<void(Packet)>;

  Sender(EventQueue& events, SenderConfig config,
         std::unique_ptr<CongestionControl> cca);

  /// Wires the sender to the network; must be called before start().
  void set_transmit(TransmitFn fn) { transmit_ = std::move(fn); }

  /// Attaches the run's flight recorder and propagates it to the CCA. The
  /// recorder guards every record call on its own enabled flag, so wiring it
  /// unconditionally costs nothing while recording is off.
  void set_recorder(FlightRecorder* rec) {
    recorder_ = rec;
    cca_->bind_recorder(rec, config_.flow_id);
  }

  /// Attaches the run's telemetry sampler and propagates it to the CCA
  /// (same contract as set_recorder: free while telemetry is off).
  void set_telemetry(Telemetry* telemetry) {
    telemetry_ = telemetry;
    cca_->bind_telemetry(telemetry, config_.flow_id);
  }

  /// Fills the sender-owned fields of a telemetry sample: cwnd, the
  /// *effective* pacing rate (what the pacer actually enforces, including the
  /// cwnd/SRTT-derived rate for window-driven CCAs), SRTT, inflight, acked
  /// bytes, losses, and the CCA's control stage. Read-only: sampling cannot
  /// perturb the run.
  void fill_telemetry(TelemetryFlowSample& sample) const;

  /// Schedules the first send and the periodic tick at config.start_time.
  void start();

  /// Invoked by the network when the ACK for `pkt` reaches the sender.
  void on_ack_packet(const Packet& pkt);

  /// One semantic tick (RTO scan, CCA on_tick, send attempt) without the
  /// self-rescheduling timer — the fleet engine's shard scan calls this for
  /// flows its SoA state says have work to do.
  void run_tick(SimTime now);

  /// Points this sender at row `idx` of the fleet engine's SoA hot state; the
  /// sender refreshes the row after every state-changing entry point.
  void bind_fleet_slot(FleetFlowHot* hot, std::size_t idx);

  /// Finite flows: set once, when the byte budget is fully acked-or-lost.
  bool finished() const { return finished_time_ >= 0; }
  SimTime finished_time() const { return finished_time_; }
  std::int64_t delivered_bytes() const { return delivered_bytes_; }

  CongestionControl& cca() { return *cca_; }
  const CongestionControl& cca() const { return *cca_; }

  /// The rate the pacer currently enforces, including the cwnd/SRTT-derived
  /// rate for window-driven CCAs — the fleet health layer's per-window
  /// pacing snapshot (same value fill_telemetry reports).
  RateBps current_pacing_rate() const { return effective_pacing_rate(); }

  std::int64_t bytes_in_flight() const { return bytes_in_flight_; }
  std::int64_t packets_sent() const { return packets_sent_; }
  std::int64_t packets_acked() const { return packets_acked_; }
  /// Sum of the raw per-ACK RTT samples, one per packets_acked().
  SimDuration rtt_sum() const { return rtt_sum_; }
  std::int64_t packets_lost() const { return packets_lost_; }
  SimDuration smoothed_rtt() const { return srtt_; }
  SimDuration min_rtt() const { return min_rtt_; }
  const SenderConfig& config() const { return config_; }

  // Observers (may be empty). Fired after the CCA sees the same event.
  std::function<void(const AckEvent&)> ack_observer;
  std::function<void(const LossEvent&)> loss_observer;
  std::function<void(const SendEvent&)> send_observer;

 private:
  struct Outstanding {
    SimTime sent_time = 0;
    std::int64_t bytes = 0;
    std::int64_t delivered_at_send = 0;
    SimTime delivered_time_at_send = 0;
  };

  // In-flight packet window keyed by sequence number. Sequences are handed
  // out monotonically and retired either from the front (loss detection) or
  // at an arbitrary recent position (ACKs), so a ring of recycled slots
  // replaces the std::map whose node-per-packet allocations dominated the
  // send/ack profile. Invariant: when non-empty, the front slot is live.
  class OutstandingWindow {
   public:
    void push(std::uint64_t seq, const Outstanding& info) {
      if (count_ == slots_.size()) grow();
      Slot& s = slots_[(head_ + count_) & (slots_.size() - 1)];
      s.info = info;
      s.live = true;
      if (count_ == 0) base_ = seq;
      ++count_;
      ++live_;
    }

    /// Live entry for `seq`, or nullptr if unknown / already retired.
    const Outstanding* find(std::uint64_t seq) const {
      const Slot* s = slot_for(seq);
      return s && s->live ? &s->info : nullptr;
    }

    /// Retires `seq` and trims retired slots off the front.
    void erase(std::uint64_t seq) {
      Slot* s = slot_for(seq);
      if (!s || !s->live) return;
      s->live = false;
      --live_;
      while (count_ > 0 && !slots_[head_].live) {
        head_ = (head_ + 1) & (slots_.size() - 1);
        ++base_;
        --count_;
      }
    }

    bool empty() const { return live_ == 0; }
    std::uint64_t front_seq() const { return base_; }
    const Outstanding& front() const { return slots_[head_].info; }

   private:
    struct Slot {
      Outstanding info;
      bool live = false;
    };

    Slot* slot_for(std::uint64_t seq) {
      if (count_ == 0 || seq < base_ || seq - base_ >= count_) return nullptr;
      return &slots_[(head_ + (seq - base_)) & (slots_.size() - 1)];
    }
    const Slot* slot_for(std::uint64_t seq) const {
      return const_cast<OutstandingWindow*>(this)->slot_for(seq);
    }

    void grow() {
      std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
      std::vector<Slot> bigger(cap);
      for (std::size_t i = 0; i < count_; ++i) {
        bigger[i] = slots_[(head_ + i) & (slots_.size() - 1)];
      }
      slots_ = std::move(bigger);
      head_ = 0;
    }

    std::vector<Slot> slots_;
    std::uint64_t base_ = 0;  // seq of the front slot
    std::size_t head_ = 0;
    std::size_t count_ = 0;   // span including retired holes
    std::size_t live_ = 0;
  };

  void maybe_send();
  void transmit_one();
  void maybe_record_rate();
  void on_tick();
  bool budget_exhausted() const {
    return config_.byte_budget >= 0 &&
           packets_sent_ * config_.packet_bytes >= config_.byte_budget;
  }
  void maybe_finish();
  void sync_hot();
  void detect_packet_threshold_losses();
  void detect_rto_losses();
  void declare_lost(std::uint64_t seq, const Outstanding& info, bool from_timeout);
  void update_rtt(SimDuration sample);
  SimDuration rto() const;
  RateBps effective_pacing_rate() const;

  EventQueue& events_;
  SenderConfig config_;
  std::unique_ptr<CongestionControl> cca_;
  TransmitFn transmit_;
  FlightRecorder* recorder_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  RateBps last_recorded_rate_ = -1;
  std::int64_t last_recorded_cwnd_ = -1;

  OutstandingWindow outstanding_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t highest_acked_ = 0;
  bool any_acked_ = false;
  std::int64_t bytes_in_flight_ = 0;

  // RTT estimation (RFC 6298 style).
  SimDuration srtt_ = 0;
  SimDuration rttvar_ = 0;
  SimDuration min_rtt_ = 0;
  SimDuration rtt_sum_ = 0;

  // Delivery-rate sampling.
  std::int64_t delivered_bytes_ = 0;
  SimTime delivered_time_ = 0;

  SimTime next_send_time_ = 0;
  bool send_event_scheduled_ = false;
  bool started_ = false;
  bool running_ = false;  // the start event has fired
  SimTime finished_time_ = -1;

  // Fleet SoA view (null outside the fleet engine).
  FleetFlowHot* hot_ = nullptr;
  std::size_t hot_idx_ = 0;
  bool wants_tick_ = true;

  std::int64_t packets_sent_ = 0;
  std::int64_t packets_acked_ = 0;
  std::int64_t packets_lost_ = 0;
};

}  // namespace libra
