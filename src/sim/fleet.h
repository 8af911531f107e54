// Fleet-scale simulation engine: hundreds-to-thousands of flows over chains
// of bottleneck hops, with a struct-of-arrays hot path and optional sharded
// event processing.
//
// Topology model: a path of hops, each a Link built from its own LinkConfig
// (capacity, buffer, queue discipline, loss, ECN marking, policer), whose
// propagation_delay is the hop's egress propagation. A flow enters at hop
// `enter_hop`, traverses contiguous hops through `exit_hop`, and its ACKs
// return over an uncongested path whose delay mirrors the forward
// propagation. Senders sit an `access_delay` in front of their first hop.
// Incast is N flows into one hop; a parking lot is several hops with per-hop
// cross traffic plus long flows spanning the chain.
//
// Execution modes, bitwise identical by construction:
//
//  - kSerial: one EventQueue holds every component's events. Each event's
//    ordering key is (shard << 48) | per-shard sequence, where a shard is a
//    bottleneck hop (plus optional sender groups) and the per-shard counters
//    advance exactly as they would under sharded execution (the queue's pop
//    hook switches the active counter to the executing event's shard).
//  - kSharded: each shard runs its own EventQueue in windows of width L, the
//    lookahead: the minimum cross-shard propagation delay. Shards post to
//    each other only along the edges of flow routes (sender -> first hop,
//    hop -> next hop, exit hop -> sender for the ACK), and an edge's slack is
//    its smallest delay in whole windows (>= 1). A message posted in the
//    source's window j lands no earlier than window j + slack, so a shard
//    may run window k as soon as every shard posting to it has finished
//    windows 0..k - slack; there is no global barrier. Posts wait in a
//    bucket per source window; a shard merges, at the start of its window
//    k, exactly the buckets of source windows k - slack, sources in shard
//    order, so every queue's contents at every window start depend on the
//    topology alone, not on thread timing. The calling thread and the pool
//    threads each claim the ready shard with the lowest window, and block
//    while none is ready.
//
// Because per-shard keys and per-shard execution order are identical in both
// modes, every simulated quantity — flow counters, queue evolution, RNG
// streams, learned-CCA decisions — is bitwise identical between kSerial and
// kSharded at any thread count. tests/fleet_test.cc asserts this for classic
// and learned controllers.
//
// Hot path: senders run in external-tick mode. Instead of one timer event
// per flow per tick (2/3 of all events in a 1000-flow 96 Mbps fan-in), each
// shard runs a single periodic scan over the FleetFlowHot SoA rows of its
// flows and only calls into Sender objects that have actual work (RTO hit,
// tick-driven controller, window headroom). See sim/flow_soa.h.
//
// No cache line the engine writes on that path is shared by two shards, even
// though topologies interleave flow ids across shards (parking-lot flow i
// enters hop i % hops): setup() lays the SoA rows out shard-major, one
// padded block per shard, behind a flow id -> row map; the per-shard key
// counters sit one per cache line; each shard's EventQueue and each hop's
// Link are line-aligned objects; per-flow measurement reads the Sender's own
// counters, so an ACK writes nothing outside its sender but, with health on,
// FleetHealth's accumulators, which take the same row map.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/fleet_stats.h"
#include "sim/congestion_control.h"
#include "sim/event_queue.h"
#include "sim/flow_soa.h"
#include "sim/link.h"
#include "sim/sender.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace libra {

class Telemetry;
struct TelemetryConfig;

enum class FleetMode { kSerial, kSharded };

struct FleetOptions {
  FleetMode mode = FleetMode::kSerial;
  /// Pool threads that run shard windows beside the calling thread under
  /// kSharded (capped at shards - 1); 0 = one thread per shard, 1 = every
  /// shard on the calling thread. Has no effect on results — only on wall
  /// time.
  std::size_t threads = 0;
  /// Extra shards that split senders off their first hop's shard (incast
  /// parallelism); 0 keeps each sender co-located with its first hop.
  int sender_shards = 0;
  /// One-way sender <-> first-hop delay. With sender_shards > 0 this is a
  /// cross-shard edge and must be > 0.
  SimDuration access_delay = msec(2);
  SimDuration duration = sec(10);
  /// Measurement-window warmup; the window opens at the first shard tick at
  /// or after this instant (identical across shards and modes).
  SimTime warmup = sec(1);
  std::uint64_t seed = 1;
  /// Base per-flow sender config (tick interval, packet size, RTO floor...).
  SenderConfig sender;
};

struct FleetFlowDef {
  std::unique_ptr<CongestionControl> cca;
  SimTime start = 0;
  SimTime stop = kSimTimeMax;
  /// Total bytes to send; negative = backlogged for the whole run.
  std::int64_t byte_budget = -1;
  int enter_hop = 0;
  /// Last hop traversed; -1 means enter_hop (single-bottleneck flow).
  int exit_hop = -1;
  SimDuration extra_ack_delay = 0;
};

struct FleetFlowSummary {
  double throughput_bps = 0;  // acked bytes over the measurement window
  double avg_rtt_ms = 0;      // mean per-ACK RTT in the window
  double loss_rate = 0;       // window losses / window sends
  double completion_s = -1;   // finite flows: finish instant; -1 if unfinished
};

struct FleetSummary {
  double sim_time_s = 0;
  double window_s = 0;  // measurement window (duration minus effective warmup)
  double total_throughput_bps = 0;
  double avg_delay_ms = 0;
  /// Jain index over the window throughputs of flows that moved bytes.
  double jain_fairness = 0;
  std::uint64_t events_processed = 0;
  /// Host-dependent; the only field excluded from bitwise-equality checks.
  double wall_time_s = 0;
  std::vector<double> hop_utilization;
  std::vector<FleetFlowSummary> flows;

  double events_per_wall_s() const {
    return wall_time_s > 0 ? static_cast<double>(events_processed) / wall_time_s
                           : 0.0;
  }
};

/// Exact equality over every deterministic field (everything but wall time).
bool deterministically_equal(const FleetSummary& a, const FleetSummary& b);

/// Thin per-flow object view over the engine's SoA state.
struct FleetFlowRef {
  const Sender& sender;
  bool active = false;
  bool wants_tick = false;
  SimTime rto_deadline = 0;
  std::int64_t send_headroom = 0;
};

class FleetNetwork {
 public:
  /// One LinkConfig per hop of the chain. A hop's `propagation_delay` is its
  /// egress propagation: one way from the hop to the next hop (or to the
  /// receiver, for the exit hop). That is the cross-shard edge, so it bounds
  /// the sharded engine's lookahead and must be > 0 for sharded topologies;
  /// the engine builds each Link with zero propagation and applies the delay
  /// at the hop boundary. Each hop's `seed` is overwritten with one derived
  /// from FleetOptions::seed and the hop index. Every other setting (marking,
  /// policing, CoDel) runs on the hop's owning shard, so serial == sharded
  /// holds for any of them. When any hop marks (LinkConfig::marks_ecn), every
  /// sender is ECT; otherwise none is.
  FleetNetwork(std::vector<LinkConfig> hops, FleetOptions options);
  ~FleetNetwork();
  FleetNetwork(const FleetNetwork&) = delete;
  FleetNetwork& operator=(const FleetNetwork&) = delete;

  /// Adds a flow before run(); returns its id (dense, in insertion order).
  int add_flow(FleetFlowDef def);

  /// Runs the whole scenario to options.duration. If an event throws, every
  /// shard stops and run() rethrows the first exception once no thread is
  /// running a shard any more.
  void run();

  FleetSummary summarize() const;

  int flow_count() const { return static_cast<int>(senders_.size()); }
  int hop_count() const { return static_cast<int>(links_.size()); }
  std::size_t shard_count() const { return shards_.size(); }
  /// Conservative window width (valid after run() starts).
  SimDuration lookahead() const { return lookahead_; }
  std::uint64_t events_processed() const;

  Sender& sender(int flow) { return *senders_[static_cast<std::size_t>(flow)]; }
  const Sender& sender(int flow) const {
    return *senders_[static_cast<std::size_t>(flow)];
  }
  const Link& hop(int h) const {
    return *links_[static_cast<std::size_t>(h)];
  }
  FleetFlowRef flow(int id) const;

  /// Sampling telemetry; one O(flows) sampling event per interval, exactly
  /// like the single-bottleneck Network. Serial mode only (the sampler is a
  /// cross-shard reader and would break shard isolation).
  void enable_telemetry(const TelemetryConfig& config);
  Telemetry* telemetry() { return telemetry_.get(); }

  /// Streaming windowed health stats (obs/fleet_stats.h). Unlike telemetry
  /// this works under BOTH engines: every hook for a flow fires on the flow's
  /// owning sender shard, so accumulation is race-free and the finished
  /// timeline is bitwise identical serial vs. sharded at any thread count.
  /// Call before run(); read timeline() via health() after run() returns
  /// (run() flushes the final windows and stamps flow outcomes).
  void enable_health(const FleetStatsConfig& config = {});
  const FleetHealth* health() const { return health_.get(); }

  /// Black-box flight recording: a fixed ring of the most recent trace
  /// events (no sink, oldest overwritten), so tracing a 1000-flow run is
  /// memory-bounded. Serial mode only — the ring is a cross-shard writer.
  void enable_recording(std::size_t ring_capacity);
  const FlightRecorder* recorder() const { return recorder_.get(); }

  /// Events executed per shard (valid after run()). Deterministic — identical
  /// serial vs. sharded — because both engines process the same per-shard
  /// event sequences; feeds fleet_run's shard-imbalance wall stats.
  std::vector<std::uint64_t> shard_event_counts() const;

 private:
  static constexpr unsigned kShardShift = 48;

  struct Route {
    int enter = 0;
    int exit = 0;
    std::size_t sender_shard = 0;
    SimDuration ack_delay = 0;
  };

  struct Shard {
    EventQueue* queue = nullptr;  // owned by queues_
    std::vector<int> flows;       // ascending flow ids
    std::vector<int> hops;
    std::vector<std::size_t> in;   // edges into it, by source shard
    std::vector<std::size_t> out;  // edges out of it
    std::int64_t window = 0;       // kSharded: lookahead window being run
    std::int64_t done = 0;         // kSharded: windows finished (mu_)
    bool running = false;          // kSharded: claimed by a thread (mu_)
    bool window_snapped = false;
  };

  // One cache line per counter: a shard bumps its own on every schedule.
  struct alignas(64) SeqCounter {
    std::uint64_t next = 0;
  };

  // Spare FleetFlowHot rows around every shard's block: 64 rows span at
  // least one cache line of every column, even the one-byte flags.
  static constexpr std::size_t kRowPad = 64;

  struct PostedMsg {
    SimTime t = 0;
    std::uint64_t key = 0;
    EventQueue::Callback fn;
  };

  // The posts of one source window. Line-aligned: a source writes its rings
  // on every post, so no two rings may share a line.
  struct alignas(64) Bucket {
    std::vector<PostedMsg> msgs;
  };

  // An ordered shard pair (src, dst) along which some route posts: sender ->
  // first hop, hop -> next hop, or exit hop -> sender. A message src posts
  // in its window j lands at or after j * L + delay >= (j + slack) * L, so
  // dst merges bucket j at the start of its window j + slack.
  struct Edge {
    std::size_t src = 0;
    std::size_t dst = 0;
    SimDuration delay = kSimTimeMax;  // smallest delay of any route on it
    std::int64_t slack = 0;           // delay / lookahead, >= 1
    std::vector<Bucket> ring;         // bucket of src window j: j % size
  };
  static constexpr std::size_t kNoEdge = static_cast<std::size_t>(-1);

  std::size_t shard_of_hop(int h) const { return static_cast<std::size_t>(h); }

  /// Serial mode: makes `shard` the executing context so every key drawn by
  /// component-internal scheduling comes from that shard's counter.
  void set_context(std::size_t shard) {
    current_ = shard;
    queues_[0]->set_seq_source(&seq_[shard].next);
  }
  static void pop_hook(void* ctx, std::uint64_t key) {
    auto* self = static_cast<FleetNetwork*>(ctx);
    const auto s = static_cast<std::size_t>(key >> kShardShift);
    ++self->shard_events_[s];
    self->set_context(s);
  }

  /// Schedules `fn` onto shard `dst`, `delay` after shard `src`'s current
  /// time. Intra-shard posts go straight to the queue; cross-shard posts
  /// carry a (src, src-sequence) key and, under kSharded, wait in the edge's
  /// bucket for src's current window. Cross-shard delay must be >= the
  /// lookahead.
  template <typename Fn>
  void post(std::size_t src, std::size_t dst, SimDuration delay, Fn&& fn) {
    if (src == dst) {
      shards_[src].queue->schedule_in(delay, std::forward<Fn>(fn));
      return;
    }
    if (delay < lookahead_)
      throw std::logic_error("FleetNetwork: cross-shard delay below lookahead");
    EventQueue& q = *shards_[src].queue;
    const SimTime t = q.now() + delay;
    const std::uint64_t key = seq_[src].next++;
    if (mode_ == FleetMode::kSerial) {
      // Executing a cross-shard message means executing *as* the destination:
      // the wrapper switches the context the pop hook set from the key's
      // source shard to dst before the payload runs, so follow-on scheduling
      // draws from dst's counter — exactly as it does under kSharded, where
      // dst's queue always draws from dst's counter. The event count moves
      // with it (the pop hook charged the key's source shard), keeping
      // shard_event_counts() identical to the sharded engine's per-queue
      // tallies.
      q.schedule_keyed(t, key,
                       EventQueue::Callback(
                           [this, src, dst, f = std::forward<Fn>(fn)]() mutable {
                             --shard_events_[src];
                             ++shard_events_[dst];
                             set_context(dst);
                             f();
                           }));
    } else {
      Edge& e = edges_[edge_of_[src * shards_.size() + dst]];
      const auto j = static_cast<std::size_t>(shards_[src].window);
      e.ring[j % e.ring.size()].msgs.push_back(
          PostedMsg{t, key, EventQueue::Callback(std::forward<Fn>(fn))});
    }
  }

  void compute_lookahead();
  void setup();
  void on_hop_deliver(int hop, const Packet& pkt);
  void shard_tick(std::size_t s);
  /// Flushes `flow`'s completed health windows with a fresh cwnd/pacing
  /// snapshot; called only when FleetHealth::needs_roll fired.
  void health_roll(int flow, SimTime now);
  void finalize_health();
  void telemetry_tick();
  void run_sharded();
  /// One thread's share of run_sharded(): claims ready shard windows until
  /// every shard has run its last one or a window threw.
  void participate();
  bool ready(const Shard& sh) const;
  /// Merges the buckets due at `s`'s window `k`, then runs the window.
  void run_window(std::size_t s, std::int64_t k);

  FleetMode mode_;
  FleetOptions opts_;
  std::vector<SimDuration> hop_delay_;  // per hop: egress propagation
  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<Shard> shards_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Sender>> senders_;
  std::vector<Route> routes_;
  FleetFlowHot hot_;                // rows in shard-major order (setup())
  std::vector<std::size_t> row_;    // flow id -> hot_ row (setup())

  // Measurement-window snapshots of the senders' integer counters, taken at
  // each shard's window start, so the derived summary doubles are an exact
  // function of the simulated run.
  std::vector<std::int64_t> acked_bytes_w0_, rtt_sum_us_w0_, rtt_samples_w0_;
  std::vector<std::int64_t> sent_w0_, lost_w0_;
  std::vector<std::int64_t> hop_delivered_w0_;
  SimTime window_start_ = 0;

  std::vector<SeqCounter> seq_;     // per-shard key counters, pre-shifted
  std::size_t current_ = 0;         // serial mode: executing shard
  std::vector<std::uint64_t> shard_events_;  // serial: events per shard
  SimDuration lookahead_ = 0;

  // kSharded: windows [k * L, (k + 1) * L) for k < windows_ run before the
  // lookahead edge; window windows_ is the inclusive step at t == duration.
  std::vector<Edge> edges_;
  std::vector<std::size_t> edge_of_;  // [src * shards + dst] -> edges_ index
  std::int64_t windows_ = 0;
  std::mutex mu_;                 // guards Shard::done, Shard::running, error_
  std::condition_variable ready_cv_;  // a window finished, or one threw
  std::exception_ptr error_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<FleetHealth> health_;
  std::unique_ptr<FlightRecorder> recorder_;
  bool health_on_ = false;  // cached health_->enabled() for the hot hooks
  bool health_finalized_ = false;
  bool started_ = false;
  double wall_time_s_ = 0;
  // Last, so it is destroyed first: its threads run shards, which use every
  // member above.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace libra
