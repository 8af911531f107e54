#include "sim/fleet.h"

#include <algorithm>
#include <chrono>
#include <future>

#include "obs/profiler.h"
#include "obs/telemetry.h"

namespace libra {

FleetNetwork::FleetNetwork(std::vector<LinkConfig> hops, FleetOptions options)
    : mode_(options.mode), opts_(std::move(options)) {
  if (hops.empty())
    throw std::invalid_argument("FleetNetwork: at least one hop required");
  if (opts_.sender_shards < 0)
    throw std::invalid_argument("FleetNetwork: sender_shards must be >= 0");
  if (opts_.sender.tick_interval <= 0)
    throw std::invalid_argument("FleetNetwork: tick interval must be > 0");

  const std::size_t nshards =
      hops.size() + static_cast<std::size_t>(opts_.sender_shards);
  if (nshards >= (std::size_t{1} << 15))
    throw std::invalid_argument("FleetNetwork: too many shards");
  shards_.resize(nshards);
  seq_.resize(nshards);
  for (std::size_t s = 0; s < nshards; ++s)
    seq_[s].next = static_cast<std::uint64_t>(s) << kShardShift;

  if (mode_ == FleetMode::kSerial) {
    shard_events_.assign(nshards, 0);
    queues_.push_back(std::make_unique<EventQueue>());
    queues_[0]->set_pop_hook(&FleetNetwork::pop_hook, this);
    for (Shard& sh : shards_) sh.queue = queues_[0].get();
    set_context(0);
  } else {
    queues_.reserve(nshards);
    for (std::size_t s = 0; s < nshards; ++s) {
      queues_.push_back(std::make_unique<EventQueue>());
      queues_[s]->set_seq_source(&seq_[s].next);
      shards_[s].queue = queues_[s].get();
    }
  }

  // A hop that can CE-mark makes every sender ECT, so its marks reach the
  // CCAs.
  opts_.sender.ecn_capable = std::any_of(
      hops.begin(), hops.end(), [](const LinkConfig& l) { return l.marks_ecn(); });

  links_.reserve(hops.size());
  hop_delay_.reserve(hops.size());
  for (std::size_t h = 0; h < hops.size(); ++h) {
    LinkConfig& cfg = hops[h];
    // Hop-to-hop propagation is the engine's cross-shard edge (see
    // on_hop_deliver); the link itself delivers at serialization end.
    hop_delay_.push_back(cfg.propagation_delay);
    cfg.propagation_delay = 0;
    cfg.seed = opts_.seed ^ (0xF1EE7u + 0x9E3779B9u * static_cast<std::uint64_t>(h));
    auto link = std::make_unique<Link>(*shards_[h].queue, std::move(cfg));
    const int hop = static_cast<int>(h);
    link->set_deliver([this, hop](const Packet& pkt) { on_hop_deliver(hop, pkt); });
    shards_[h].hops.push_back(hop);
    links_.push_back(std::move(link));
  }

  if (opts_.warmup <= 0) {
    window_start_ = 0;
  } else {
    const SimDuration tick = opts_.sender.tick_interval;
    const SimTime k = (opts_.warmup + tick - 1) / tick;
    window_start_ = std::max<SimTime>(k, 1) * tick;
  }
  hop_delivered_w0_.assign(links_.size(), 0);
}

FleetNetwork::~FleetNetwork() = default;

int FleetNetwork::add_flow(FleetFlowDef def) {
  if (started_) throw std::logic_error("FleetNetwork: add_flow after run started");
  if (!def.cca)
    throw std::invalid_argument("FleetNetwork: flow needs a controller");
  const int nhops = hop_count();
  const int enter = def.enter_hop;
  const int exit = def.exit_hop < 0 ? enter : def.exit_hop;
  if (enter < 0 || enter >= nhops || exit < enter || exit >= nhops)
    throw std::invalid_argument("FleetNetwork: bad hop span");

  const int id = flow_count();
  Route r;
  r.enter = enter;
  r.exit = exit;
  r.sender_shard =
      opts_.sender_shards > 0
          ? links_.size() + static_cast<std::size_t>(id % opts_.sender_shards)
          : shard_of_hop(enter);
  // Forward path past the exit hop's serialization: the remaining one-way
  // propagation to the receiver plus the whole uncongested return path
  // (mirroring the forward propagation and the sender's access link).
  SimDuration return_path = opts_.access_delay + def.extra_ack_delay;
  for (int h = enter; h <= exit; ++h)
    return_path += hop_delay_[static_cast<std::size_t>(h)];
  r.ack_delay = hop_delay_[static_cast<std::size_t>(exit)] + return_path;

  SenderConfig cfg = opts_.sender;
  cfg.flow_id = id;
  cfg.start_time = def.start;
  cfg.stop_time = def.stop;
  cfg.byte_budget = def.byte_budget;
  cfg.external_tick = true;
  auto snd = std::make_unique<Sender>(*shards_[r.sender_shard].queue, cfg,
                                      std::move(def.cca));

  Link* first = links_[static_cast<std::size_t>(enter)].get();
  const std::size_t src = r.sender_shard;
  const std::size_t dst = shard_of_hop(enter);
  const SimDuration access = opts_.access_delay;
  snd->set_transmit([this, first, src, dst, access](Packet pkt) {
    post(src, dst, access, [first, pkt] { first->send(pkt); });
  });

  shards_[r.sender_shard].flows.push_back(id);
  routes_.push_back(r);
  senders_.push_back(std::move(snd));
  acked_bytes_w0_.push_back(0);
  rtt_sum_us_w0_.push_back(0);
  rtt_samples_w0_.push_back(0);
  sent_w0_.push_back(0);
  lost_w0_.push_back(0);
  return id;
}

void FleetNetwork::compute_lookahead() {
  const std::size_t n = shards_.size();
  edge_of_.assign(n * n, kNoEdge);
  SimDuration min_cross = kSimTimeMax;
  auto add_edge = [&](std::size_t src, std::size_t dst, SimDuration delay) {
    std::size_t& e = edge_of_[src * n + dst];
    if (e == kNoEdge) {
      e = edges_.size();
      edges_.emplace_back();
      edges_[e].src = src;
      edges_[e].dst = dst;
    }
    edges_[e].delay = std::min(edges_[e].delay, delay);
    min_cross = std::min(min_cross, delay);
  };
  for (const Route& r : routes_) {
    const std::size_t enter = shard_of_hop(r.enter);
    const std::size_t exit = shard_of_hop(r.exit);
    if (r.sender_shard != enter)
      add_edge(r.sender_shard, enter, opts_.access_delay);
    for (int h = r.enter; h < r.exit; ++h)
      add_edge(shard_of_hop(h), shard_of_hop(h + 1),
               hop_delay_[static_cast<std::size_t>(h)]);
    if (r.sender_shard != exit) add_edge(exit, r.sender_shard, r.ack_delay);
  }
  if (min_cross <= 0)
    throw std::invalid_argument(
        "FleetNetwork: cross-shard delays (hop/access/ack) must be > 0");
  // Single-shard topology: one window covers the whole run.
  lookahead_ = min_cross == kSimTimeMax
                   ? std::max<SimDuration>(opts_.duration, 1)
                   : min_cross;
  windows_ =
      (std::max<SimTime>(opts_.duration, 0) + lookahead_ - 1) / lookahead_;
  for (Edge& edge : edges_) {
    edge.slack = edge.delay / lookahead_;
    // A source may run two windows past the last one its destination
    // finished (ready()); perfbench fleet ran ~30% slower with one, and
    // not measurably faster with eight (EXPERIMENTS.md).
    edge.ring.resize(static_cast<std::size_t>(edge.slack) + 2);
  }
  // Sources in ascending order, so each shard merges its inputs in shard
  // order.
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      const std::size_t e = edge_of_[src * n + dst];
      if (e == kNoEdge) continue;
      shards_[src].out.push_back(e);
      shards_[dst].in.push_back(e);
    }
  }
}

void FleetNetwork::setup() {
  // Shard-major hot rows: each shard's flows take one contiguous block with
  // kRowPad spare rows on either side, so a shard's scan and its senders'
  // sync_hot() write cache lines no other shard writes.
  row_.resize(senders_.size());
  std::size_t rows = kRowPad;
  for (const Shard& sh : shards_) {
    for (int f : sh.flows) row_[static_cast<std::size_t>(f)] = rows++;
    rows += kRowPad;
  }
  hot_.resize(rows);
  health_on_ = health_ && health_->enabled();
  if (health_on_) {
    std::vector<FleetFlowMeta> metas(senders_.size());
    for (std::size_t i = 0; i < senders_.size(); ++i) {
      const SenderConfig& cfg = senders_[i]->config();
      metas[i].start = cfg.start_time;
      metas[i].stop = cfg.stop_time;
      metas[i].byte_budget = cfg.byte_budget;
    }
    health_->prepare(opts_.duration, std::move(metas), row_, rows);
    // Observers are wired only when health is on, so a health-off run keeps
    // the sender's plain null-observer checks on its ack/loss/send paths.
    for (std::size_t i = 0; i < senders_.size(); ++i) {
      const int id = static_cast<int>(i);
      senders_[i]->ack_observer = [this, id](const AckEvent& ev) {
        if (health_->needs_roll(id, ev.now)) health_roll(id, ev.now);
        health_->on_ack(id, ev.acked_bytes, ev.rtt);
      };
      senders_[i]->loss_observer = [this, id](const LossEvent& ev) {
        if (health_->needs_roll(id, ev.now)) health_roll(id, ev.now);
        health_->on_loss(id);
      };
      senders_[i]->send_observer = [this, id](const SendEvent& ev) {
        if (health_->needs_roll(id, ev.now)) health_roll(id, ev.now);
        health_->on_send(id);
      };
    }
  }
  if (recorder_) {
    for (auto& snd : senders_) snd->set_recorder(recorder_.get());
    for (auto& link : links_) link->set_recorder(recorder_.get());
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (mode_ == FleetMode::kSerial) set_context(s);
    Shard& sh = shards_[s];
    if (window_start_ <= 0) sh.window_snapped = true;
    for (int f : sh.flows) {
      const auto i = static_cast<std::size_t>(f);
      if (telemetry_) senders_[i]->set_telemetry(telemetry_.get());
      senders_[i]->bind_fleet_slot(&hot_, row_[i]);
      senders_[i]->start();
    }
    sh.queue->schedule_in(opts_.sender.tick_interval,
                          [this, s] { shard_tick(s); });
  }
  if (telemetry_ && telemetry_->enabled()) {
    set_context(0);
    shards_[0].queue->schedule_in(telemetry_->config().sample_interval,
                                  [this] { telemetry_tick(); });
  }
}

void FleetNetwork::on_hop_deliver(int hop, const Packet& pkt) {
  const Route& r = routes_[static_cast<std::size_t>(pkt.flow_id)];
  const auto h = static_cast<std::size_t>(hop);
  if (hop < r.exit) {
    Link* next = links_[h + 1].get();
    post(shard_of_hop(hop), shard_of_hop(hop + 1), hop_delay_[h],
         [next, pkt] { next->send(pkt); });
  } else {
    // Receiver acks immediately; the ACK rides the uncongested return path.
    Sender* snd = senders_[static_cast<std::size_t>(pkt.flow_id)].get();
    post(shard_of_hop(hop), r.sender_shard, r.ack_delay,
         [snd, pkt] { snd->on_ack_packet(pkt); });
  }
}

void FleetNetwork::shard_tick(std::size_t s) {
  Shard& sh = shards_[s];
  const SimTime now = sh.queue->now();
  if (!sh.window_snapped && now >= window_start_) {
    sh.window_snapped = true;
    for (int f : sh.flows) {
      const auto i = static_cast<std::size_t>(f);
      const Sender& snd = *senders_[i];
      acked_bytes_w0_[i] = snd.delivered_bytes();
      rtt_sum_us_w0_[i] = snd.rtt_sum();
      rtt_samples_w0_[i] = snd.packets_acked();
      sent_w0_[i] = snd.packets_sent();
      lost_w0_[i] = snd.packets_lost();
    }
    for (int h : sh.hops)
      hop_delivered_w0_[static_cast<std::size_t>(h)] =
          links_[static_cast<std::size_t>(h)]->delivered_bytes();
  }
  if (health_on_) {
    // Window rolls for flows with no recent events: the tick grid is global,
    // so roll points interleave identically under both engines.
    for (int f : sh.flows)
      if (health_->needs_roll(f, now)) health_roll(f, now);
  }
  {
    PROF_SCOPE("fleet.scan");
    const std::int64_t pkt = opts_.sender.packet_bytes;
    for (int f : sh.flows) {
      const std::size_t i = row_[static_cast<std::size_t>(f)];
      const std::uint8_t bits = hot_.flags[i];
      if (!(bits & FleetFlowHot::kActive)) continue;
      if (now >= hot_.stop_time[i]) {
        hot_.flags[i] = bits & static_cast<std::uint8_t>(~FleetFlowHot::kActive);
        continue;
      }
      if ((bits & FleetFlowHot::kWantsTick) || now >= hot_.rto_deadline[i] ||
          hot_.send_headroom[i] >= pkt) {
        senders_[static_cast<std::size_t>(f)]->run_tick(now);
      }
    }
  }
  sh.queue->schedule_in(opts_.sender.tick_interval, [this, s] { shard_tick(s); });
}

void FleetNetwork::health_roll(int flow, SimTime now) {
  const Sender& snd = *senders_[static_cast<std::size_t>(flow)];
  health_->roll(flow, now, snd.cca().cwnd_bytes(),
                static_cast<double>(snd.current_pacing_rate()));
}

// Flushes the (possibly partial) final windows and stamps per-flow outcomes;
// everything read here is post-run state, identical under both engines.
void FleetNetwork::finalize_health() {
  if (!health_on_ || health_finalized_) return;
  health_finalized_ = true;
  for (int f = 0; f < flow_count(); ++f) {
    const Sender& snd = *senders_[static_cast<std::size_t>(f)];
    health_->flush_all(f, snd.cca().cwnd_bytes(),
                       static_cast<double>(snd.current_pacing_rate()));
    health_->set_flow_outcome(f, snd.finished() ? snd.finished_time() : -1,
                              snd.min_rtt());
  }
}

// One sampling event covers every flow and every hop queue (O(flows) work per
// interval, one timer regardless of flow count). Read-only, so sampling does
// not perturb the run. Serial mode only: the sampler reads across shards.
void FleetNetwork::telemetry_tick() {
  const SimTime now = queues_[0]->now();
  TelemetryFlowSample fs;
  for (std::size_t i = 0; i < senders_.size(); ++i) {
    senders_[i]->fill_telemetry(fs);
    telemetry_->sample_flow(static_cast<int>(i), fs);
  }
  TelemetryQueueSample qs;
  for (std::size_t h = 0; h < links_.size(); ++h) {
    links_[h]->fill_telemetry(qs, now);
    telemetry_->sample_queue(static_cast<int>(h), qs);
  }
  queues_[0]->schedule_in(telemetry_->config().sample_interval,
                          [this] { telemetry_tick(); });
}

void FleetNetwork::run_window(std::size_t s, std::int64_t k) {
  PROF_SCOPE("fleet.shard");
  Shard& sh = shards_[s];
  sh.window = k;
  EventQueue& q = *sh.queue;
  {
    PROF_SCOPE("fleet.merge");
    for (std::size_t e : sh.in) {
      Edge& edge = edges_[e];
      const std::int64_t j = k - edge.slack;
      if (j < 0) continue;
      Bucket& b = edge.ring[static_cast<std::size_t>(j) % edge.ring.size()];
      for (PostedMsg& m : b.msgs) q.schedule_keyed(m.t, m.key, std::move(m.fn));
      b.msgs.clear();
    }
  }
  if (k < windows_) {
    q.run_before(std::min<SimTime>(opts_.duration, (k + 1) * lookahead_));
  } else {
    // Events at exactly t == end; anything they post lands past the end.
    q.run_until(opts_.duration);
  }
}

// Shard `sh` may run its next window k once every source has finished
// windows 0..k - slack (all its posts landing before window k ends sit in
// buckets due by k), and once every destination has merged the bucket that
// window k refills: the ring's previous window k - size, merged at the
// destination's window k - size + slack.
bool FleetNetwork::ready(const Shard& sh) const {
  if (sh.running || sh.done > windows_) return false;
  for (std::size_t e : sh.in) {
    const Edge& edge = edges_[e];
    if (shards_[edge.src].done <= sh.done - edge.slack) return false;
  }
  for (std::size_t e : sh.out) {
    const Edge& edge = edges_[e];
    const auto size = static_cast<std::int64_t>(edge.ring.size());
    if (shards_[edge.dst].done <= sh.done - size + edge.slack) return false;
  }
  return true;
}

void FleetNetwork::participate() {
  const std::size_t n = shards_.size();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (error_) return;
    // The ready shard with the lowest window, ties to the lower index.
    std::size_t pick = n;
    bool finished = true;
    for (std::size_t s = 0; s < n; ++s) {
      const Shard& sh = shards_[s];
      finished = finished && sh.done > windows_;
      if (ready(sh) && (pick == n || sh.done < shards_[pick].done)) pick = s;
    }
    if (finished) return;
    if (pick == n) {
      ready_cv_.wait(lock);
      continue;
    }
    Shard& sh = shards_[pick];
    sh.running = true;
    const std::int64_t k = sh.done;
    lock.unlock();
    std::exception_ptr failed;
    try {
      run_window(pick, k);
    } catch (...) {
      failed = std::current_exception();
    }
    lock.lock();
    sh.running = false;
    if (failed) {
      if (!error_) error_ = failed;
    } else {
      ++sh.done;
    }
    ready_cv_.notify_all();
  }
}

void FleetNetwork::run_sharded() {
  const std::size_t n = shards_.size();
  if (!pool_) {
    const std::size_t want = opts_.threads ? opts_.threads : n;
    if (want > 1 && n > 1)
      pool_ = std::make_unique<ThreadPool>(std::min(want, n - 1));
  }
  std::vector<std::future<void>> helpers;
  if (pool_) {
    helpers.reserve(pool_->thread_count());
    try {
      for (std::size_t i = 0; i < pool_->thread_count(); ++i)
        helpers.push_back(pool_->submit([this] { participate(); }));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
  participate();
  for (std::future<void>& f : helpers) f.wait();
  if (error_) std::rethrow_exception(error_);
}

void FleetNetwork::run() {
  PROF_SCOPE("fleet.run");
  const auto t0 = std::chrono::steady_clock::now();
  if (!started_) {
    started_ = true;
    compute_lookahead();
    setup();
  }
  if (mode_ == FleetMode::kSerial) {
    queues_[0]->run_until(opts_.duration);
  } else {
    run_sharded();
  }
  finalize_health();
  wall_time_s_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

std::uint64_t FleetNetwork::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& q : queues_) total += q->processed();
  return total;
}

FleetFlowRef FleetNetwork::flow(int id) const {
  const auto i = static_cast<std::size_t>(id);
  if (i >= row_.size()) return FleetFlowRef{*senders_[i]};  // before run()
  const std::size_t r = row_[i];
  const std::uint8_t bits = hot_.flags[r];
  return FleetFlowRef{*senders_[i], (bits & FleetFlowHot::kActive) != 0,
                      (bits & FleetFlowHot::kWantsTick) != 0,
                      hot_.rto_deadline[r], hot_.send_headroom[r]};
}

void FleetNetwork::enable_telemetry(const TelemetryConfig& config) {
  if (mode_ != FleetMode::kSerial)
    throw std::logic_error("FleetNetwork: telemetry requires serial mode");
  if (started_)
    throw std::logic_error("FleetNetwork: enable_telemetry before run");
  if (!telemetry_) telemetry_ = std::make_unique<Telemetry>();
  telemetry_->enable(config);
}

void FleetNetwork::enable_health(const FleetStatsConfig& config) {
  if (started_)
    throw std::logic_error("FleetNetwork: enable_health before run");
  if (!health_) health_ = std::make_unique<FleetHealth>();
  health_->enable(config);
}

void FleetNetwork::enable_recording(std::size_t ring_capacity) {
  if (mode_ != FleetMode::kSerial)
    throw std::logic_error("FleetNetwork: recording requires serial mode");
  if (started_)
    throw std::logic_error("FleetNetwork: enable_recording before run");
  if (!recorder_) recorder_ = std::make_unique<FlightRecorder>();
  recorder_->enable(ring_capacity);
}

std::vector<std::uint64_t> FleetNetwork::shard_event_counts() const {
  if (mode_ == FleetMode::kSerial) return shard_events_;
  std::vector<std::uint64_t> out;
  out.reserve(queues_.size());
  for (const auto& q : queues_) out.push_back(q->processed());
  return out;
}

FleetSummary FleetNetwork::summarize() const {
  FleetSummary out;
  out.sim_time_s = to_seconds(opts_.duration);
  out.wall_time_s = wall_time_s_;
  out.events_processed = events_processed();
  const SimTime w0 = std::min<SimTime>(window_start_, opts_.duration);
  const double win = to_seconds(opts_.duration - w0);
  out.window_s = win;

  std::int64_t rtt_sum = 0, rtt_n = 0;
  double sum_x = 0, sum_x2 = 0;
  std::size_t fair_n = 0;
  out.flows.reserve(senders_.size());
  for (std::size_t i = 0; i < senders_.size(); ++i) {
    const Sender& snd = *senders_[i];
    FleetFlowSummary fs;
    const std::int64_t bytes = snd.delivered_bytes() - acked_bytes_w0_[i];
    fs.throughput_bps = win > 0 ? static_cast<double>(bytes) * 8.0 / win : 0.0;
    const std::int64_t n = snd.packets_acked() - rtt_samples_w0_[i];
    const std::int64_t flow_rtt_sum = snd.rtt_sum() - rtt_sum_us_w0_[i];
    fs.avg_rtt_ms = n > 0 ? static_cast<double>(flow_rtt_sum) /
                                (1000.0 * static_cast<double>(n))
                          : 0.0;
    const std::int64_t sent = snd.packets_sent() - sent_w0_[i];
    const std::int64_t lost = snd.packets_lost() - lost_w0_[i];
    fs.loss_rate =
        sent > 0 ? static_cast<double>(lost) / static_cast<double>(sent) : 0.0;
    fs.completion_s = snd.finished() ? to_seconds(snd.finished_time()) : -1.0;
    rtt_sum += flow_rtt_sum;
    rtt_n += n;
    out.total_throughput_bps += fs.throughput_bps;
    if (fs.throughput_bps > 0) {
      sum_x += fs.throughput_bps;
      sum_x2 += fs.throughput_bps * fs.throughput_bps;
      ++fair_n;
    }
    out.flows.push_back(fs);
  }
  out.avg_delay_ms =
      rtt_n > 0 ? static_cast<double>(rtt_sum) / (1000.0 * static_cast<double>(rtt_n))
                : 0.0;
  out.jain_fairness = fair_n > 0 && sum_x2 > 0
                          ? (sum_x * sum_x) / (static_cast<double>(fair_n) * sum_x2)
                          : 0.0;

  out.hop_utilization.reserve(links_.size());
  for (std::size_t h = 0; h < links_.size(); ++h) {
    const std::int64_t delivered =
        links_[h]->delivered_bytes() - hop_delivered_w0_[h];
    const double cap_bits =
        links_[h]->capacity().average_rate(w0, opts_.duration) * win;
    out.hop_utilization.push_back(
        cap_bits > 0
            ? std::min(1.0, static_cast<double>(delivered) * 8.0 / cap_bits)
            : 0.0);
  }
  return out;
}

bool deterministically_equal(const FleetSummary& a, const FleetSummary& b) {
  if (a.sim_time_s != b.sim_time_s || a.window_s != b.window_s ||
      a.total_throughput_bps != b.total_throughput_bps ||
      a.avg_delay_ms != b.avg_delay_ms || a.jain_fairness != b.jain_fairness ||
      a.events_processed != b.events_processed ||
      a.hop_utilization != b.hop_utilization || a.flows.size() != b.flows.size())
    return false;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const FleetFlowSummary& x = a.flows[i];
    const FleetFlowSummary& y = b.flows[i];
    if (x.throughput_bps != y.throughput_bps || x.avg_rtt_ms != y.avg_rtt_ms ||
        x.loss_rate != y.loss_rate || x.completion_s != y.completion_s)
      return false;
  }
  return true;
}

}  // namespace libra
