// Tracing decorators for congestion controllers: every callback becomes a
// profiler span ("cca.ack", "cca.tick", "cca.loss", "cca.sent"), so the
// controller's cost is split out of the sender spans that call it. Shaped
// like harness/metered.h.
//
// TimedCca wraps the outermost controller of a flow. It must never wrap
// Libra's classic child (Libra casts that child to WindowAdjustable) nor the
// controller a Trainer drives (the trainer casts it to RlCca to read the
// episode reward); for the latter, TimedRlCca *is* an RlCca, so the cast
// still succeeds. Neither changes what the wrapped controller computes.
#pragma once

#include <memory>
#include <utility>

#include "learned/rl_cca.h"
#include "obs/profiler.h"
#include "sim/congestion_control.h"
#include "timing.h"

namespace perfbench {

class TimedCca final : public libra::CongestionControl {
 public:
  explicit TimedCca(std::unique_ptr<libra::CongestionControl> inner)
      : inner_(std::move(inner)) {}

  void on_packet_sent(const libra::SendEvent& ev) override {
    libra::ProfScope span("cca.sent");
    inner_->on_packet_sent(ev);
  }
  void on_ack(const libra::AckEvent& ack) override {
    libra::ProfScope span("cca.ack");
    inner_->on_ack(ack);
  }
  void on_loss(const libra::LossEvent& loss) override {
    libra::ProfScope span("cca.loss");
    inner_->on_loss(loss);
  }
  void on_tick(libra::SimTime now) override {
    libra::ProfScope span("cca.tick");
    inner_->on_tick(now);
  }
  bool wants_tick() const override { return inner_->wants_tick(); }

  void bind_recorder(libra::FlightRecorder* rec, int flow_id) override {
    CongestionControl::bind_recorder(rec, flow_id);
    inner_->bind_recorder(rec, flow_id);
  }
  void bind_telemetry(libra::Telemetry* telemetry, int flow_id) override {
    CongestionControl::bind_telemetry(telemetry, flow_id);
    inner_->bind_telemetry(telemetry, flow_id);
  }
  int telemetry_stage() const override { return inner_->telemetry_stage(); }

  libra::RateBps pacing_rate() const override { return inner_->pacing_rate(); }
  std::int64_t cwnd_bytes() const override { return inner_->cwnd_bytes(); }
  std::string name() const override { return inner_->name(); }
  std::int64_t memory_bytes() const override { return inner_->memory_bytes(); }

  const libra::CongestionControl& inner() const { return *inner_; }

 private:
  std::unique_ptr<libra::CongestionControl> inner_;
};

/// The controller itself when a decorator would hide it: unwraps TimedCca.
inline const libra::CongestionControl& unwrap(const libra::CongestionControl& cca) {
  if (const auto* timed = dynamic_cast<const TimedCca*>(&cca)) return timed->inner();
  return cca;
}

/// An RlCca whose callbacks are spans and whose lifetime (one training
/// episode: built when the episode's network adds the flow, destroyed with
/// the network) is logged as an interval on the thread that ran it.
class TimedRlCca final : public libra::RlCca {
 public:
  TimedRlCca(libra::RlCcaConfig config, std::shared_ptr<libra::RlBrain> brain,
             IntervalLog& lifetimes)
      : RlCca(std::move(config), std::move(brain)),
        lifetimes_(lifetimes),
        start_s_(now_s()) {}

  ~TimedRlCca() override {
    try {
      lifetimes_.add({start_s_, now_s(), thread_index()});
    } catch (...) {
      // Out of memory while logging: the interval is lost, the episode's
      // results are not. Losing one shifts harness.parallel.* slightly.
    }
  }

  TimedRlCca(const TimedRlCca&) = delete;
  TimedRlCca& operator=(const TimedRlCca&) = delete;

  void on_packet_sent(const libra::SendEvent& ev) override {
    libra::ProfScope span("cca.sent");
    RlCca::on_packet_sent(ev);
  }
  void on_ack(const libra::AckEvent& ack) override {
    libra::ProfScope span("cca.ack");
    RlCca::on_ack(ack);
  }
  void on_loss(const libra::LossEvent& loss) override {
    libra::ProfScope span("cca.loss");
    RlCca::on_loss(loss);
  }
  void on_tick(libra::SimTime now) override {
    libra::ProfScope span("cca.tick");
    RlCca::on_tick(now);
  }

 private:
  IntervalLog& lifetimes_;
  double start_s_;
};

}  // namespace perfbench
