#include "obs/recorder.h"

#include <stdexcept>

#include "obs/json.h"

namespace libra {

namespace {

const char* drop_reason_name(double reason) {
  switch (static_cast<int>(reason)) {
    case static_cast<int>(DropReason::kOverflow): return "overflow";
    case static_cast<int>(DropReason::kWire): return "wire";
    case static_cast<int>(DropReason::kCodel): return "codel";
    case static_cast<int>(DropReason::kPolicer): return "policer";
    default: return "unknown";
  }
}

const char* stage_name(double stage) {
  switch (static_cast<int>(stage)) {
    case 0: return "exploration";
    case 1: return "eval_first";
    case 2: return "eval_second";
    case 3: return "exploitation";
    default: return "unknown";
  }
}

const char* winner_name(std::uint64_t packed) {
  switch (packed & 3u) {
    case 0: return "prev";
    case 1: return "classic";
    case 2: return "rl";
    default: return "unknown";
  }
}

}  // namespace

void FlightRecorder::enable(std::size_t ring_capacity) {
  if (ring_capacity == 0) throw std::invalid_argument("FlightRecorder: zero capacity");
  if (ring_.size() != ring_capacity) {
    ring_.assign(ring_capacity, TraceEvent{});
    head_ = 0;
    size_ = 0;
  }
  enabled_ = true;
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

void FlightRecorder::flush() {
  if (!sink_) return;
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& ev = ring_[(head_ + i) % ring_.size()];
    line_.clear();
    append_jsonl(ev, line_);
    sink_->write_line(line_);
  }
  head_ = 0;
  size_ = 0;
  sink_->flush();
}

const char* FlightRecorder::kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kEnqueue: return "enq";
    case TraceKind::kDrop: return "drop";
    case TraceKind::kDeliver: return "deliver";
    case TraceKind::kSend: return "send";
    case TraceKind::kAck: return "ack";
    case TraceKind::kLoss: return "loss";
    case TraceKind::kRate: return "rate";
    case TraceKind::kStage: return "stage";
    case TraceKind::kCycle: return "cycle";
    case TraceKind::kCca: return "cca";
    case TraceKind::kRun: return "run";
    case TraceKind::kEcn: return "ecn";
    case TraceKind::kPolicer: return "policer";
  }
  return "unknown";
}

void FlightRecorder::append_jsonl(const TraceEvent& ev, std::string& out) {
  JsonWriter w(out);
  w.begin_object();
  w.key("t").value(to_seconds(ev.t));
  w.key("ev").value(kind_name(ev.kind));
  if (ev.flow >= 0) w.key("flow").value(static_cast<std::int64_t>(ev.flow));
  switch (ev.kind) {
    case TraceKind::kEnqueue:
      w.key("seq").value(ev.seq);
      w.key("bytes").value(ev.a);
      w.key("qbytes").value(ev.b);
      w.key("qpkts").value(ev.c);
      break;
    case TraceKind::kDrop:
      w.key("seq").value(ev.seq);
      w.key("bytes").value(ev.a);
      w.key("qbytes").value(ev.b);
      w.key("reason").value(drop_reason_name(ev.c));
      break;
    case TraceKind::kDeliver:
      w.key("seq").value(ev.seq);
      w.key("bytes").value(ev.a);
      w.key("qbytes").value(ev.b);
      break;
    case TraceKind::kSend:
      w.key("seq").value(ev.seq);
      w.key("bytes").value(ev.a);
      w.key("inflight").value(ev.b);
      break;
    case TraceKind::kAck:
      w.key("seq").value(ev.seq);
      w.key("rtt_ms").value(ev.a);
      w.key("bytes").value(ev.b);
      w.key("rate_bps").value(ev.c);
      w.key("inflight").value(ev.d);
      break;
    case TraceKind::kLoss:
      w.key("seq").value(ev.seq);
      w.key("bytes").value(ev.a);
      w.key("timeout").value(ev.b != 0);
      break;
    case TraceKind::kRate:
      w.key("rate_bps").value(ev.a);
      w.key("cwnd").value(ev.b);
      break;
    case TraceKind::kStage:
      w.key("stage").value(stage_name(ev.a));
      break;
    case TraceKind::kCycle:
      w.key("winner").value(winner_name(ev.seq));
      w.key("valid").value((ev.seq & 4u) != 0);
      w.key("x_prev").value(ev.a);
      w.key("x_cl").value(ev.b);
      w.key("x_rl").value(ev.c);
      w.key("u_prev").value(ev.d);
      w.key("u_cl").value(ev.e);
      w.key("u_rl").value(ev.f);
      break;
    case TraceKind::kCca:
      w.key("code").value(ev.seq);
      w.key("v0").value(ev.a);
      w.key("v1").value(ev.b);
      break;
    case TraceKind::kRun:
      break;
    case TraceKind::kEcn:
      w.key("seq").value(ev.seq);
      w.key("bytes").value(ev.a);
      w.key("qbytes").value(ev.b);
      break;
    case TraceKind::kPolicer:
      w.key("seq").value(ev.seq);
      w.key("bytes").value(ev.a);
      w.key("tokens").value(ev.b);
      w.key("marked").value(ev.c != 0);
      break;
  }
  w.end_object();
}

}  // namespace libra
