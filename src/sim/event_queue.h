// Discrete-event scheduler.
//
// Events are totally ordered by (time, insertion sequence) so simulations are
// deterministic: two events at the same instant fire in the order they were
// scheduled.
//
// Hot-path notes: callbacks are SmallFunction, so the closures the simulator
// schedules (sender timers, ACK deliveries carrying a Packet) never touch the
// heap. Only 24-byte {time, seq, slot} keys move through the ordering
// structures; the callbacks sit still in slot pools and are moved exactly
// once, when their event fires. Slots come in two sizes: most events are
// timer ticks capturing a pointer or two, so they land in a hot pool of
// 24-byte-capacity slots, while the fat ACK closures (a Packet plus context)
// go to a separate cold pool of 88-byte slots. The split keeps the pool the
// cache touches most ~3x denser; the pool is picked at compile time from the
// closure's size and tagged in the slot index's high bit.
//
// Ordering: a binary heap plus a few FIFO lanes. Most events are scheduled a
// constant delay ahead (propagation, ACK return, serialization at a fixed
// rate, periodic ticks), and those already arrive in (time, seq) order: the
// clock never runs backwards, so now + d never decreases for a fixed d, and
// the sequence counter only grows. schedule_in(d, ...) therefore appends the
// key in O(1) to the lane for delay d whenever it is not earlier than that
// lane's tail. Everything else goes to the heap: schedule_at and
// schedule_keyed events, and a schedule_in key that would land out of order
// (the fleet's serial engine switches sequence sources mid-run). Every lane
// is sorted by construction, so the global (time, seq) minimum is always the
// heap top or one of the lane heads, and a pop takes the smallest of those
// few candidates by a linear compare. The pop order is thus exactly the
// order of a single heap over all events, which keeps every run bitwise
// identical to one. A delay gets a lane when it first needs one; a drained
// lane is re-keyed to the next delay that has none, so one-off delays (an
// LTE link gives every dequeue its own serialization time) mostly stay off
// the heap too.
//
// The class is cache-line aligned: a fleet runs one queue per shard, and the
// counters every dispatch writes (processed_, pending_, max_pending_) must
// not share a line with a neighbouring shard's queue.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "obs/profiler.h"
#include "util/fifo_ring.h"
#include "util/small_function.h"
#include "util/types.h"

namespace libra {

class alignas(64) EventQueue {
 public:
  // Cold slots, sized for the largest simulator capture (the ACK closure:
  // Packet + two words of context); anything bigger degrades to one heap
  // allocation inside SmallFunction.
  using Callback = SmallFunction<88>;
  // Hot slots: timer/tick closures capturing at most three words.
  using TimerCallback = SmallFunction<24>;

  static_assert(sizeof(TimerCallback) <= 40,
                "hot slot outgrew its budget (storage + ops pointer)");
  static_assert(sizeof(Callback) <= 104,
                "cold slot outgrew its budget (storage + ops pointer)");
  static_assert(sizeof(TimerCallback) < sizeof(Callback),
                "hot/cold split is pointless unless hot slots are smaller");

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time t. The slot pool is picked at compile
  /// time: closures that fit a TimerCallback inline go to the hot pool,
  /// everything else to the cold pool.
  template <typename Fn>
  void schedule_at(SimTime t, Fn&& fn) {
    if (t < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
    push_heap(Key{t, (*seq_src_)++, claim_slot(std::forward<Fn>(fn))});
  }

  /// Schedules a pre-built callback with an explicit ordering key instead of
  /// the internal insertion sequence. The fleet engine uses this to give
  /// cross-shard messages a (source shard, source sequence) key that sorts
  /// the same whether the queue is the single serial queue or a per-shard
  /// one — the foundation of its bitwise serial==sharded guarantee.
  void schedule_keyed(SimTime t, std::uint64_t key, Callback fn) {
    if (t < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
    push_heap(Key{t, key, claim(cold_slots_, free_cold_, std::move(fn))});
  }

  /// Redirects the insertion-sequence counter used by schedule_at/schedule_in.
  /// The fleet engine points this at a per-shard counter so ordering keys are
  /// a pure function of the shard topology; nullptr restores the default
  /// internal counter. The counter's high bits are part of the key, so
  /// sources must hand out globally unique values.
  void set_seq_source(std::uint64_t* src) { seq_src_ = src ? src : &next_seq_; }

  /// Called right before each popped event runs, with the event's ordering
  /// key. The fleet engine's serial mode uses it to recover which shard an
  /// event belongs to (the key's high bits) and switch the sequence source
  /// accordingly. One predicted-not-taken branch when unset.
  using PopHook = void (*)(void* ctx, std::uint64_t key);
  void set_pop_hook(PopHook hook, void* ctx) {
    pop_hook_ = hook;
    pop_ctx_ = ctx;
  }

  /// Schedules `fn` a delay `d` from now: on the lane for `d` when the key
  /// keeps that lane sorted, else on the heap (see the header comment).
  template <typename Fn>
  void schedule_in(SimDuration d, Fn&& fn) {
    const SimTime t = now_ + d;
    if (t < now_) throw std::invalid_argument("EventQueue: scheduling in the past");
    const Key key{t, (*seq_src_)++, claim_slot(std::forward<Fn>(fn))};
    if (Lane* lane = lane_for(d, key)) {
      lane->keys.push_back(key);
      count_push();
    } else {
      push_heap(key);
    }
  }

  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }

  /// Events executed since construction (events/sec telemetry for benches).
  std::uint64_t processed() const { return processed_; }

  /// High-water mark of pending events (event-queue depth telemetry).
  std::size_t max_pending() const { return max_pending_; }

  /// Executes the earliest event; returns false when the queue is empty.
  bool run_next() {
    const int src = earliest();
    if (src == kNone) return false;
    dispatch(src);
    return true;
  }

  /// Runs every event with time <= t, then advances the clock to exactly t.
  void run_until(SimTime t) {
    for (int src = earliest(); src != kNone && head(src).time <= t; src = earliest())
      dispatch(src);
    if (t > now_) now_ = t;
  }

  /// Runs every event with time strictly < t and leaves the clock at the last
  /// executed event. Window processing for the sharded engine: a lookahead
  /// window [T, T+L) must exclude its right edge, where cross-shard messages
  /// merged at the start of the next window may still land.
  void run_before(SimTime t) {
    for (int src = earliest(); src != kNone && head(src).time < t; src = earliest())
      dispatch(src);
  }

  /// Events currently parked in the hot (timer) vs cold (payload) slot pool
  /// — pool-sizing telemetry for the event-queue benches.
  std::size_t hot_slot_count() const { return hot_slots_.size(); }
  std::size_t cold_slot_count() const { return cold_slots_.size(); }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // std::push_heap builds a max-heap, so "greater" ordering puts the earliest
  // (time, seq) at the front.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  // Keys scheduled `delay` ahead, in pop order. The ring allocates on first
  // use, so lanes a queue never keys cost nothing.
  struct Lane {
    SimDuration delay = 0;
    FifoRing<Key> keys{0};
  };

  // Few enough that a pop's linear compare of the lane heads stays cheaper
  // than a heap sift, enough for every constant delay of a fleet shard
  // (serialization, propagation, access, ACK return, tick). Only the
  // lanes_used_ prefix is ever keyed, so a pop compares only those.
  static constexpr int kLanes = 8;
  // earliest() results that are not a lane index.
  static constexpr int kHeap = kLanes;
  static constexpr int kNone = -1;

  // High bit of Key::slot tags the pool; the low 31 bits index into it.
  static constexpr std::uint32_t kHotBit = 1u << 31;

  // Same criteria SmallFunction<24> uses for inline storage: routing on them
  // means nothing ever lands in a hot slot only to heap-allocate inside it.
  template <typename Fn>
  static constexpr bool fits_hot =
      sizeof(std::decay_t<Fn>) <= 24 &&
      alignof(std::decay_t<Fn>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<Fn>>;

  template <typename Fn>
  std::uint32_t claim_slot(Fn&& fn) {
    if constexpr (fits_hot<Fn>) {
      return kHotBit | claim(hot_slots_, free_hot_,
                             TimerCallback(std::forward<Fn>(fn)));
    } else {
      return claim(cold_slots_, free_cold_, Callback(std::forward<Fn>(fn)));
    }
  }

  template <typename Slot>
  static std::uint32_t claim(std::vector<Slot>& slots,
                             std::vector<std::uint32_t>& free, Slot cb) {
    std::uint32_t slot;
    if (free.empty()) {
      slot = static_cast<std::uint32_t>(slots.size());
      slots.push_back(std::move(cb));
    } else {
      slot = free.back();
      free.pop_back();
      slots[slot] = std::move(cb);
    }
    return slot;
  }

  void count_push() {
    if (++pending_ > max_pending_) max_pending_ = pending_;
  }

  void push_heap(const Key& key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    count_push();
  }

  // The lane `key` (scheduled `d` ahead) may be appended to, or nullptr for
  // the heap: the lane already keyed to `d` if the key keeps it sorted, else
  // the first drained lane (or a never-used one), re-keyed to `d`. Delays
  // map to at most one lane.
  Lane* lane_for(SimDuration d, const Key& key) {
    Lane* spare = nullptr;
    for (int i = 0; i < lanes_used_; ++i) {
      Lane& lane = lanes_[i];
      if (lane.delay == d) {
        return lane.keys.empty() || !Later{}(lane.keys.back(), key) ? &lane
                                                                     : nullptr;
      }
      if (!spare && lane.keys.empty()) spare = &lane;
    }
    if (!spare) {
      if (lanes_used_ == kLanes) return nullptr;
      spare = &lanes_[lanes_used_++];
    }
    spare->delay = d;
    return spare;
  }

  // Where the earliest pending event sits: a lane index, kHeap, or kNone.
  int earliest() const {
    int src = heap_.empty() ? kNone : kHeap;
    const Key* best = heap_.empty() ? nullptr : &heap_.front();
    for (int i = 0; i < lanes_used_; ++i) {
      const FifoRing<Key>& keys = lanes_[i].keys;
      if (keys.empty()) continue;
      if (!best || Later{}(*best, keys.front())) {
        best = &keys.front();
        src = i;
      }
    }
    return src;
  }

  const Key& head(int src) const {
    return src == kHeap ? heap_.front() : lanes_[src].keys.front();
  }

  Key pop(int src) {
    const Key key = head(src);
    if (src == kHeap) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    } else {
      lanes_[src].keys.pop_front();
    }
    --pending_;
    return key;
  }

  // Pops the earliest event (from `src`, as earliest() found it) and runs it.
  void dispatch(int src) {
    PROF_SCOPE("sim.event");
    const Key key = pop(src);
    now_ = key.time;
    ++processed_;
    if (pop_hook_) pop_hook_(pop_ctx_, key.seq);
    // Move the callback out and recycle its slot *before* invoking: the
    // callback is free to schedule new events, which may reuse the slot.
    if (key.slot & kHotBit) {
      const std::uint32_t s = key.slot & ~kHotBit;
      TimerCallback cb = std::move(hot_slots_[s]);
      free_hot_.push_back(s);
      cb();
    } else {
      Callback cb = std::move(cold_slots_[key.slot]);
      free_cold_.push_back(key.slot);
      cb();
    }
  }

  std::vector<Key> heap_;
  std::array<Lane, kLanes> lanes_;
  int lanes_used_ = 0;
  std::vector<TimerCallback> hot_slots_;  // indexed by Key::slot low bits
  std::vector<Callback> cold_slots_;
  std::vector<std::uint32_t> free_hot_;
  std::vector<std::uint32_t> free_cold_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t* seq_src_ = &next_seq_;
  PopHook pop_hook_ = nullptr;
  void* pop_ctx_ = nullptr;
  std::uint64_t processed_ = 0;
  std::size_t pending_ = 0;
  std::size_t max_pending_ = 0;
};

}  // namespace libra
