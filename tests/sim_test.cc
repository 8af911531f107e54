#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/stats_window.h"
#include "classic/newreno.h"
#include "util/rng.h"

namespace libra {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(msec(30), [&] { order.push_back(3); });
  q.schedule_at(msec(10), [&] { order.push_back(1); });
  q.schedule_at(msec(20), [&] { order.push_back(2); });
  q.run_until(msec(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), msec(100));
}

TEST(EventQueue, SameTimeFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    q.schedule_at(msec(10), [&order, i] { order.push_back(i); });
  q.run_until(msec(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NestedScheduling) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(msec(1), [&] {
    ++fired;
    q.schedule_in(msec(1), [&] { ++fired; });
  });
  q.run_until(msec(5));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RejectsPast) {
  EventQueue q;
  q.schedule_at(msec(10), [] {});
  q.run_until(msec(20));
  EXPECT_THROW(q.schedule_at(msec(5), [] {}), std::invalid_argument);
}

TEST(EventQueue, RunNextReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.run_next());
}

TEST(EventQueue, SameTimeFifoAcrossManyEventsAndHeapGrowth) {
  // Enough events to force several storage growths mid-stream; insertion
  // order must survive the heap's internal moves.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 500; ++i)
    q.schedule_at(msec(10), [&order, i] { order.push_back(i); });
  q.run_until(msec(10));
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, SchedulingFromInsideCallbackAtCurrentInstant) {
  // An event scheduled for "now" from inside a callback runs within the same
  // run_until, after every previously scheduled same-time event.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(msec(10), [&] {
    order.push_back(0);
    q.schedule_at(msec(10), [&] { order.push_back(2); });
  });
  q.schedule_at(msec(10), [&] { order.push_back(1); });
  q.run_until(msec(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), msec(10));
}

TEST(EventQueue, RunUntilAdvancesClockPastLastEvent) {
  EventQueue q;
  q.schedule_at(msec(3), [] {});
  q.run_until(msec(50));
  EXPECT_EQ(q.now(), msec(50));
  q.run_until(msec(50));  // idempotent
  EXPECT_EQ(q.now(), msec(50));
  q.run_until(msec(40));  // never moves backwards
  EXPECT_EQ(q.now(), msec(50));
}

TEST(EventQueue, RunUntilLeavesLaterEventsPending) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(msec(10), [&] { ++fired; });
  q.schedule_at(msec(30), [&] { ++fired; });
  q.run_until(msec(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.now(), msec(20));
  q.run_until(msec(30));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CountsProcessedEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(msec(i), [] {});
  q.run_until(msec(3));
  EXPECT_EQ(q.processed(), 4u);  // t = 0,1,2,3
  q.run_until(msec(10));
  EXPECT_EQ(q.processed(), 7u);
}

TEST(EventQueue, LargeCaptureCallback) {
  // A capture bigger than the inline buffer takes the heap fallback; behavior
  // must be unchanged.
  EventQueue q;
  std::array<double, 32> payload{};
  payload[31] = 42.0;
  double seen = 0;
  q.schedule_at(msec(1), [payload, &seen] { seen = payload[31]; });
  q.run_until(msec(1));
  EXPECT_EQ(seen, 42.0);
}

TEST(EventQueue, MoveOnlyCaptureCallback) {
  EventQueue q;
  auto value = std::make_unique<int>(99);
  int seen = 0;
  q.schedule_at(msec(1), [v = std::move(value), &seen] { seen = *v; });
  q.run_until(msec(1));
  EXPECT_EQ(seen, 99);
}

TEST(EventQueue, RoutesClosuresToHotAndColdSlotPools) {
  // Small (timer-like) closures land in the 24-byte hot pool; a fat capture
  // goes to the cold pool. Ordering and behavior are pool-independent.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(msec(1), [&order] { order.push_back(1); });  // hot: one pointer
  std::array<double, 8> payload{};
  payload[7] = 2.0;
  q.schedule_at(msec(2), [&order, payload] {  // 72 bytes: cold pool
    order.push_back(static_cast<int>(payload[7]));
  });
  EXPECT_EQ(q.hot_slot_count(), 1u);
  EXPECT_EQ(q.cold_slot_count(), 1u);
  q.run_until(msec(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, HotSlotsAreRecycled) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    q.schedule_at(msec(i), [&fired] { ++fired; });
    q.run_until(msec(i));
  }
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(q.hot_slot_count(), 1u);  // one slot, reused 100 times
  EXPECT_EQ(q.cold_slot_count(), 0u);
}

TEST(EventQueue, DestroysUnrunCallbacks) {
  // Pending events dropped with the queue must release their captures.
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    EventQueue q;
    q.schedule_at(msec(5), [t = std::move(token)] { (void)t; });
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

// Reference-model property test: a std::set of every pending (time, key, id)
// must pop in exactly the order the queue fires, whichever of the heap, a
// lane, a re-keyed lane or a keyed slot held each event.
class EventQueueModel {
 public:
  explicit EventQueueModel(std::uint64_t seed) : rng_(seed) {
    q_.set_seq_source(active_);
  }

  void run(int rounds) {
    for (int r = 0; r < rounds && failure_.empty(); ++r) {
      // A burst at one instant on one delay class with alternating sequence
      // sources: inserts into that delay class arrive out of key order.
      for (int i = 0; i < 6; ++i) {
        switch_source();
        schedule_in(kRepeated[1]);
      }
      const auto ops = rng_.uniform_int(1, 20);
      for (std::int64_t i = 0; i < ops; ++i) random_op();
      // More one-off delays than the queue has lanes: they re-key whichever
      // lanes have drained since the last round and overflow to the heap.
      for (int i = 0; i < 10; ++i) schedule_in(rng_.uniform_int(5001, 9000));
      boundary();
    }
    while (failure_.empty() && q_.run_next()) {}
    check(ref_.empty(), "queue drained before the reference");
    check(q_.empty() && q_.pending() == 0, "queue not empty at the end");
  }

  std::uint64_t fired() const { return fired_; }
  const std::string& failure() const { return failure_; }

 private:
  static constexpr std::array<SimDuration, 4> kRepeated = {0, 7, 50, 1000};

  void check(bool ok, const char* what) {
    if (!ok && failure_.empty())
      failure_ = std::string(what) + " (event " + std::to_string(fired_) + ")";
  }

  void switch_source() {
    active_ = active_ == &seq_[0] ? &seq_[1] : &seq_[0];
    q_.set_seq_source(active_);
  }

  void expect(SimTime t, std::uint64_t key) {
    ref_.emplace(t, key, next_id_);
    max_pending_ = std::max(max_pending_, ref_.size());
  }

  // Alternates hot-slot and cold-slot (fat) closures.
  template <typename Schedule>
  void with_callback(Schedule&& schedule) {
    const int id = next_id_++;
    if (id % 2) {
      schedule([this, id] { on_fire(id); });
    } else {
      std::array<std::uint64_t, 6> pad{};
      pad[0] = static_cast<std::uint64_t>(id);
      schedule([this, pad] { on_fire(static_cast<int>(pad[0])); });
    }
  }

  void schedule_at(SimTime t) {
    const std::uint64_t key = *active_;
    expect(t, key);
    with_callback([&](auto fn) { q_.schedule_at(t, std::move(fn)); });
    check(*active_ == key + 1, "schedule_at drew a wrong sequence number");
  }

  void schedule_in(SimDuration d) {
    const std::uint64_t key = *active_;
    expect(q_.now() + d, key);
    with_callback([&](auto fn) { q_.schedule_in(d, std::move(fn)); });
    check(*active_ == key + 1, "schedule_in drew a wrong sequence number");
  }

  void schedule_keyed(SimTime t) {
    const std::uint64_t key = (*active_)++;
    expect(t, key);
    with_callback([&](auto fn) {
      q_.schedule_keyed(t, key, EventQueue::Callback(std::move(fn)));
    });
  }

  void random_op() {
    const auto kind = rng_.uniform_int(0, 9);
    if (kind == 0) {
      switch_source();
    } else if (kind <= 2) {
      schedule_at(q_.now() + (rng_.chance(0.3) ? 0 : rng_.uniform_int(1, 3000)));
    } else if (kind <= 7) {
      schedule_in(rng_.chance(0.7)
                      ? kRepeated[static_cast<std::size_t>(rng_.uniform_int(0, 3))]
                      : rng_.uniform_int(1, 5000));
    } else {
      schedule_keyed(q_.now() + rng_.uniform_int(0, 3000));
    }
  }

  void on_fire(int id) {
    if (!failure_.empty()) return;
    check(!ref_.empty(), "queue fired an event the reference does not hold");
    if (ref_.empty()) return;
    const auto [t, key, want] = *ref_.begin();
    check(id == want, "pop order differs from (time, key) order");
    check(q_.now() == t, "now() is not the fired event's time");
    ref_.erase(ref_.begin());
    check(q_.pending() == ref_.size(), "pending() disagrees inside a callback");
    now_ = t;
    ++fired_;
    // Follow-ups from inside the callback, including same-instant ones.
    if (rng_.chance(0.45)) random_op();
    if (rng_.chance(0.1)) schedule_at(q_.now());
    if (rng_.chance(0.1)) schedule_in(0);
  }

  void boundary() {
    const auto kind = rng_.uniform_int(0, 2);
    const SimTime t = q_.now() + rng_.uniform_int(0, 12000);
    if (kind == 0) {
      q_.run_until(t);
      now_ = std::max(now_, t);
      check(ref_.empty() || std::get<0>(*ref_.begin()) > t,
            "run_until left a due event");
    } else if (kind == 1) {
      q_.run_before(t);
      check(ref_.empty() || std::get<0>(*ref_.begin()) >= t,
            "run_before left a due event");
    } else {
      const bool had = !ref_.empty();
      check(q_.run_next() == had, "run_next result disagrees");
    }
    check(q_.now() == now_, "now() disagrees at a run boundary");
    check(q_.pending() == ref_.size(), "pending() disagrees at a run boundary");
    check(q_.max_pending() == max_pending_, "max_pending() disagrees");
  }

  EventQueue q_;
  Rng rng_;
  std::uint64_t seq_[2] = {0, std::uint64_t{1} << 48};
  std::uint64_t* active_ = &seq_[0];
  std::set<std::tuple<SimTime, std::uint64_t, int>> ref_;
  std::size_t max_pending_ = 0;
  SimTime now_ = 0;
  int next_id_ = 0;
  std::uint64_t fired_ = 0;
  std::string failure_;
};

TEST(EventQueue, PopOrderMatchesReferenceModel) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    EventQueueModel model(seed);
    model.run(300);
    EXPECT_EQ(model.failure(), "") << "seed " << seed;
    EXPECT_GT(model.fired(), 5000u) << "seed " << seed;
  }
}

LinkConfig test_link(RateBps rate = mbps(12), std::int64_t buffer = 15000,
                     double loss = 0.0) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(rate);
  cfg.buffer_bytes = buffer;
  cfg.propagation_delay = msec(10);
  cfg.stochastic_loss = loss;
  return cfg;
}

// The DropTailLink suite tests Link with its default droptail discipline.
TEST(DropTailLink, SerializationPlusPropagation) {
  EventQueue q;
  Link link(q, test_link(mbps(12)));
  SimTime delivered_at = -1;
  link.set_deliver([&](const Packet&) { delivered_at = q.now(); });
  Packet p;
  p.bytes = 1500;
  link.send(p);
  q.run_until(sec(1));
  // 1 ms serialization + 10 ms propagation.
  EXPECT_EQ(delivered_at, msec(11));
}

TEST(DropTailLink, QueueingDelaysBackToBack) {
  EventQueue q;
  Link link(q, test_link(mbps(12)));
  std::vector<SimTime> deliveries;
  link.set_deliver([&](const Packet&) { deliveries.push_back(q.now()); });
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.bytes = 1500;
    p.seq = static_cast<std::uint64_t>(i);
    link.send(p);
  }
  q.run_until(sec(1));
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], msec(11));
  EXPECT_EQ(deliveries[1], msec(12));  // spaced by serialization time
  EXPECT_EQ(deliveries[2], msec(13));
}

TEST(DropTailLink, TailDropsWhenFull) {
  EventQueue q;
  // Buffer of 3000 bytes = 2 packets.
  Link link(q, test_link(mbps(12), 3000));
  int drops = 0, delivered = 0;
  link.set_drop([&](const Packet&) { ++drops; });
  link.set_deliver([&](const Packet&) { ++delivered; });
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.bytes = 1500;
    link.send(p);
  }
  // 2 fit in the buffer; the rest tail-drop (transmission begins only when
  // the event loop runs, so nothing has drained yet).
  EXPECT_EQ(drops, 3);
  q.run_until(sec(1));
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.delivered_bytes(), 3000);
}

TEST(DropTailLink, EcnMarksEctPacketsAboveThreshold) {
  EventQueue q;
  // K = 3000 bytes (2 packets): arrivals that find >= 2 packets queued are
  // CE-marked; non-ECT packets pass unmarked regardless.
  LinkConfig cfg = test_link(mbps(12), 100'000);
  cfg.ecn_threshold_bytes = 3000;
  Link link(q, cfg);
  std::vector<bool> ce;
  link.set_deliver([&](const Packet& p) { ce.push_back(p.ce_marked); });
  for (int i = 0; i < 6; ++i) {
    Packet p;
    p.bytes = 1500;
    p.seq = static_cast<std::uint64_t>(i);
    p.ecn_capable = (i != 5);  // last packet is non-ECT
    link.send(p);
  }
  q.run_until(sec(1));
  ASSERT_EQ(ce.size(), 6u);
  // Packets 0 and 1 saw a queue below K; 2-4 saw >= 3000 bytes queued and
  // are marked; packet 5 also saw a full queue but is not ECT.
  EXPECT_EQ(ce, (std::vector<bool>{false, false, true, true, true, false}));
  EXPECT_EQ(link.ecn_marks(), 3);
  EXPECT_EQ(link.drops_overflow(), 0);
}

TEST(DropTailLink, EcnDisabledNeverMarks) {
  EventQueue q;
  Link link(q, test_link(mbps(12), 100'000));  // threshold 0 = off
  int marked = 0, delivered = 0;
  link.set_deliver([&](const Packet& p) {
    ++delivered;
    if (p.ce_marked) ++marked;
  });
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.bytes = 1500;
    p.ecn_capable = true;
    link.send(p);
  }
  q.run_until(sec(1));
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(marked, 0);
  EXPECT_EQ(link.ecn_marks(), 0);
}

TEST(DropTailLink, PolicerPassesBurstThenEnforcesRate) {
  // Token-bucket conformance: a burst up to the bucket passes untouched,
  // then a sustained overload is clipped to the token rate.
  EventQueue q;
  LinkConfig cfg = test_link(mbps(100), 10'000'000);
  cfg.policer_rate = mbps(10);             // 1250 bytes/ms refill
  cfg.policer_burst_bytes = 15'000;        // 10-packet bucket, starts full
  Link link(q, cfg);
  int delivered = 0;
  link.set_deliver([&](const Packet&) { ++delivered; });
  // Instantaneous burst of 20 packets: exactly the 10 in the bucket conform.
  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.bytes = 1500;
    p.seq = static_cast<std::uint64_t>(i);
    link.send(p);
  }
  EXPECT_EQ(link.drops_policer(), 10);
  // Steady state: offer 2 packets/ms (24 Mbps) for one second. The bucket is
  // empty, so conformance is the refill rate: 10 Mbps = 833.3 packets/s.
  q.run_until(msec(1));
  std::int64_t burst_drops = link.drops_policer();
  for (int i = 0; i < 2000; ++i) {
    Packet p;
    p.bytes = 1500;
    p.seq = static_cast<std::uint64_t>(100 + i);
    link.send(p);
    if (i % 2 == 1) q.run_until(q.now() + 1000);  // +1 ms every 2 packets
  }
  const std::int64_t steady_passed =
      2000 - (link.drops_policer() - burst_drops);
  // 10 Mbps over 1 s = 1.25 MB = 833 packets (±1 for bucket rounding).
  EXPECT_NEAR(static_cast<double>(steady_passed), 833.0, 2.0);
  q.run_until(sec(5));
  EXPECT_EQ(delivered, 10 + static_cast<int>(steady_passed));
}

TEST(DropTailLink, PolicerMarksInsteadOfDroppingWhenConfigured) {
  EventQueue q;
  LinkConfig cfg = test_link(mbps(100), 10'000'000);
  cfg.policer_rate = mbps(10);
  cfg.policer_burst_bytes = 15'000;
  cfg.policer_marks = true;
  Link link(q, cfg);
  int ce = 0, clean = 0;
  link.set_deliver([&](const Packet& p) { p.ce_marked ? ++ce : ++clean; });
  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.bytes = 1500;
    p.ecn_capable = true;
    link.send(p);
  }
  q.run_until(sec(1));
  // The 10 bucket-conformant packets pass clean; the rest are CE-marked and
  // forwarded rather than dropped.
  EXPECT_EQ(clean, 10);
  EXPECT_EQ(ce, 10);
  EXPECT_EQ(link.policer_marks(), 10);
  EXPECT_EQ(link.drops_policer(), 0);
}

TEST(DropTailLink, PolicerActiveWindowGatesEnforcement) {
  EventQueue q;
  LinkConfig cfg = test_link(mbps(100), 10'000'000);
  cfg.policer_rate = mbps(10);
  cfg.policer_burst_bytes = 1500;  // 1-packet bucket: every burst is clipped
  cfg.policer_start = msec(100);
  cfg.policer_stop = msec(200);
  Link link(q, cfg);
  link.set_deliver([](const Packet&) {});
  auto burst = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Packet p;
      p.bytes = 1500;
      link.send(p);
    }
  };
  burst(5);  // before the window: untouched
  EXPECT_EQ(link.drops_policer(), 0);
  q.run_until(msec(150));
  burst(5);  // inside: 1 conforms (fresh bucket), 4 drop
  EXPECT_EQ(link.drops_policer(), 4);
  q.run_until(msec(250));
  burst(5);  // after the window: untouched again
  EXPECT_EQ(link.drops_policer(), 4);
}

TEST(DropTailLink, StochasticLossApproximatesRate) {
  EventQueue q;
  Link link(q, test_link(mbps(1000), 1 << 30, 0.2));
  int drops = 0, delivered = 0;
  link.set_drop([&](const Packet&) { ++drops; });
  link.set_deliver([&](const Packet&) { ++delivered; });
  for (int i = 0; i < 5000; ++i) {
    Packet p;
    p.bytes = 100;
    link.send(p);
    q.run_until(q.now() + 10);
  }
  q.run_until(sec(10));
  EXPECT_NEAR(static_cast<double>(drops) / 5000.0, 0.2, 0.03);
}

TEST(DropTailLink, TimeVaryingCapacity) {
  EventQueue q;
  LinkConfig cfg;
  cfg.capacity = std::make_unique<PiecewiseTrace>(
      std::vector<PiecewiseTrace::Segment>{{0, mbps(12)}, {msec(100), mbps(1.2)}});
  cfg.buffer_bytes = 1 << 20;
  cfg.propagation_delay = 0;
  Link link(q, std::move(cfg));
  std::vector<SimTime> deliveries;
  link.set_deliver([&](const Packet&) { deliveries.push_back(q.now()); });

  Packet p;
  p.bytes = 1500;
  link.send(p);
  q.run_until(msec(50));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], msec(1));  // 1 ms at 12 Mbps

  q.run_until(msec(200));
  link.send(p);
  q.run_until(sec(1));
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[1], msec(200) + msec(10));  // 10 ms at 1.2 Mbps
}

TEST(DropTailLink, Validation) {
  EventQueue q;
  LinkConfig cfg;
  EXPECT_THROW(Link(q, std::move(cfg)), std::invalid_argument);
}

TEST(StatsWindow, AttributesBySendTime) {
  StatsWindow w(msec(10), msec(20), mbps(5));
  AckEvent inside{msec(100), 1, msec(15), msec(30), 1500, 0, 0, msec(30)};
  AckEvent outside{msec(100), 2, msec(25), msec(30), 1500, 0, 0, msec(30)};
  w.on_ack(inside);
  w.on_ack(outside);
  EXPECT_EQ(w.acks(), 1);
}

TEST(StatsWindow, ThroughputFromAckSpan) {
  StatsWindow w(0, msec(10), mbps(5));
  // Two acks 1 ms apart, 1500 bytes each: second ack's bytes over 1 ms span.
  w.on_ack({msec(20), 1, msec(1), msec(19), 1500, 0, 0, msec(19)});
  w.on_ack({msec(21), 2, msec(2), msec(19), 1500, 0, 0, msec(19)});
  EXPECT_NEAR(w.throughput_bps(), mbps(24), mbps(0.1));
}

TEST(StatsWindow, LossRate) {
  StatsWindow w(0, msec(10), mbps(5));
  w.on_ack({msec(20), 1, msec(1), msec(19), 1500, 0, 0, msec(19)});
  LossEvent l{msec(25), 2, msec(2), 1500, 0, false};
  w.on_loss(l);
  EXPECT_DOUBLE_EQ(w.loss_rate(), 0.5);
}

TEST(StatsWindow, RttGradientSlope) {
  StatsWindow w(0, msec(100), mbps(5));
  // RTT rising 10 ms per 100 ms of time: slope 0.1.
  for (int i = 0; i < 5; ++i) {
    SimTime t = msec(10) * (i + 1);
    w.on_ack({t, static_cast<std::uint64_t>(i), msec(1) * i,
              msec(20) + t / 10, 1500, 0, 0, msec(20)});
  }
  EXPECT_NEAR(w.rtt_gradient(), 0.1, 1e-6);
}

TEST(StatsWindow, CloseShrinksSendWindow) {
  StatsWindow w(0, msec(100), mbps(5));
  w.close(msec(50));
  EXPECT_FALSE(w.covers(msec(60)));
  EXPECT_TRUE(w.covers(msec(40)));
}

TEST(Network, SingleNewRenoFlowFillsLink) {
  LinkConfig cfg = test_link(mbps(12), 30000);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<NewReno>());
  net.run_until(sec(10));
  EXPECT_GT(net.link_utilization(sec(2), sec(10)), 0.9);
  EXPECT_GT(net.flow(0).sender().packets_acked(), 1000);
}

TEST(Network, ConservationOfPackets) {
  Network net(test_link(mbps(12), 15000, 0.01));
  net.add_flow(std::make_unique<NewReno>());
  net.run_until(sec(5));
  const Sender& s = net.flow(0).sender();
  std::int64_t inflight_pkts = s.bytes_in_flight() / kDefaultPacketBytes;
  EXPECT_EQ(s.packets_sent(), s.packets_acked() + s.packets_lost() + inflight_pkts);
}

TEST(Network, DeterministicForSeed) {
  auto run = [] {
    Network net(test_link(mbps(12), 15000, 0.02));
    net.add_flow(std::make_unique<NewReno>());
    net.run_until(sec(5));
    return net.flow(0).sender().packets_acked();
  };
  EXPECT_EQ(run(), run());
}

TEST(Network, StaggeredFlowsStartAndStop) {
  Network net(test_link(mbps(12), 30000));
  net.add_flow(std::make_unique<NewReno>(), sec(0), sec(4));
  net.add_flow(std::make_unique<NewReno>(), sec(2), kSimTimeMax);
  net.run_until(sec(8));
  const Flow& first = net.flow(0);
  const Flow& second = net.flow(1);
  // First flow stops at 4 s: no acked bytes attributable past ~4.2 s.
  EXPECT_DOUBLE_EQ(first.throughput_in(sec(5), sec(8)), 0.0);
  // Second flow owns the link afterwards.
  EXPECT_GT(second.throughput_in(sec(5), sec(8)), mbps(9));
}

TEST(Network, HeterogeneousRttViaAckDelay) {
  Network net(test_link(mbps(12), 60000));
  net.add_flow(std::make_unique<NewReno>(), 0, kSimTimeMax, msec(40));
  net.run_until(sec(5));
  // min RTT = 10 (fwd) + 10 + 40 (ack path) = 60 ms.
  EXPECT_GE(net.flow(0).sender().min_rtt(), msec(60));
}

TEST(Network, AddFlowAfterStartThrows) {
  Network net(test_link());
  net.add_flow(std::make_unique<NewReno>());
  net.run_until(msec(1));
  EXPECT_THROW(net.add_flow(std::make_unique<NewReno>()), std::logic_error);
}

TEST(Network, WindowRowsMatchSenderCounters) {
  // Every ACK and every loss lands in exactly one 10 ms row, so the rows
  // summed over all sim time so far reproduce the sender's own counters.
  Network net(test_link(mbps(12), 15000, 0.02));
  net.add_flow(std::make_unique<NewReno>());
  net.add_flow(std::make_unique<NewReno>(), msec(1500));
  net.run_until(sec(5));
  // run_until(t) also runs the events at t, which sit in the row from t.
  const SimTime end = sec(5) + kWindowGrid;
  for (int i = 0; i < net.flow_count(); ++i) {
    SCOPED_TRACE(i);
    const Flow& f = net.flow(i);
    const Sender& s = f.sender();
    const FlowCounts c = f.counts_in(0, end);
    EXPECT_EQ(c.acked_bytes, s.delivered_bytes());
    EXPECT_EQ(c.acks, s.packets_acked());
    EXPECT_EQ(c.lost, s.packets_lost());
    EXPECT_EQ(c.rtt_sum_us, s.rtt_sum());
    EXPECT_GT(c.lost, 0);
    // Split anywhere on the grid, the two sides add up to the whole.
    const FlowCounts a = f.counts_in(0, msec(2370));
    const FlowCounts b = f.counts_in(msec(2370), end);
    EXPECT_EQ(a.acked_bytes + b.acked_bytes, c.acked_bytes);
    EXPECT_EQ(a.acks + b.acks, c.acks);
    EXPECT_EQ(a.lost + b.lost, c.lost);
    EXPECT_EQ(a.rtt_sum_us + b.rtt_sum_us, c.rtt_sum_us);
    EXPECT_EQ(f.loss_rate_in(0, end),
              static_cast<double>(c.lost) / static_cast<double>(c.lost + c.acks));
    // Rate bins: ceil(span / bin) of them, each over the full bin width.
    const std::vector<double> bins = f.rate_bins(msec(300), sec(2), sec(3));
    ASSERT_EQ(bins.size(), 4u);
    for (std::size_t k = 0; k < bins.size(); ++k) {
      const SimTime t0 = sec(2) + msec(300) * static_cast<SimTime>(k);
      const SimTime t1 = std::min(t0 + msec(300), sec(3));
      EXPECT_EQ(bins[k], static_cast<double>(f.counts_in(t0, t1).acked_bytes) * 8.0 /
                             to_seconds(msec(300)));
    }
  }
  // The second flow starts at 1.5 s: nothing before, something after.
  EXPECT_EQ(net.flow(1).counts_in(0, msec(1500)).acks, 0);
  EXPECT_GT(net.flow(1).counts_in(msec(1500), end).acks, 0);

  // Rows are half-open: an event at exactly k * 10 ms opens row k. At
  // 1.2 Mbps a 1500-byte packet serializes in 10 ms, so with 10 ms each way
  // the first packet reaches the receiver at 20 ms and its ACK the sender at
  // 30 ms; the second follows 10 ms later.
  Network edge(test_link(kbps(1200), 30000));
  edge.add_flow(std::make_unique<NewReno>());
  edge.run_until(msec(45));
  const Flow& f = edge.flow(0);
  EXPECT_EQ(f.counts_in(0, msec(30)).acks, 0);
  EXPECT_EQ(f.counts_in(msec(30), msec(40)).acks, 1);
  EXPECT_EQ(f.counts_in(msec(40), msec(50)).acks, 1);
  EXPECT_EQ(edge.link_utilization(0, msec(20)), 0.0);
  EXPECT_EQ(edge.link_utilization(msec(20), msec(30)), 1.0);
}

TEST(Network, WindowQueriesRejectBoundsOffTheGrid) {
  Network net(test_link(mbps(12), 30000));
  net.add_flow(std::make_unique<NewReno>());
  net.run_until(sec(2));
  const Flow& f = net.flow(0);
  EXPECT_THROW(f.throughput_in(msec(5), sec(1)), std::invalid_argument);
  EXPECT_THROW(f.mean_rtt_in(0, msec(1005)), std::invalid_argument);
  EXPECT_THROW(f.loss_rate_in(-kWindowGrid, sec(1)), std::invalid_argument);
  EXPECT_THROW(f.counts_in(usec(1), sec(1)), std::invalid_argument);
  EXPECT_THROW(f.rate_bins(msec(15), 0, sec(1)), std::invalid_argument);
  EXPECT_THROW(f.rate_bins(msec(500), msec(5), sec(1)), std::invalid_argument);
  EXPECT_THROW(f.rate_bins(msec(500), sec(1), sec(1)), std::invalid_argument);
  EXPECT_THROW(net.link_utilization(0, msec(1995)), std::invalid_argument);
  // An empty or reversed window still reads zero.
  EXPECT_EQ(f.throughput_in(sec(1), sec(1)), 0.0);
  EXPECT_EQ(f.throughput_in(sec(1), 0), 0.0);
  EXPECT_EQ(f.mean_rtt_in(sec(1), 0), 0.0);
  EXPECT_EQ(f.loss_rate_in(sec(1), 0), 0.0);
  EXPECT_EQ(net.link_utilization(sec(1), 0), 0.0);
  // On the grid but past the end of the run: zero, not an error.
  EXPECT_EQ(f.throughput_in(sec(10), sec(20)), 0.0);
  EXPECT_GT(f.throughput_in(0, sec(2)), 0.0);
  EXPECT_GT(net.link_utilization(0, sec(2)), 0.0);
}

TEST(Sender, RtoFiresOnBlackout) {
  // A link whose capacity dies after 200 ms: outstanding packets must be
  // declared lost by the RTO so in-flight drains and the CCA learns.
  LinkConfig cfg;
  cfg.capacity = std::make_unique<PiecewiseTrace>(
      std::vector<PiecewiseTrace::Segment>{{0, mbps(12)}, {msec(200), 0.0}});
  cfg.buffer_bytes = 1 << 20;
  cfg.propagation_delay = msec(10);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<NewReno>());
  net.run_until(sec(5));
  EXPECT_GT(net.flow(0).sender().packets_lost(), 0);
  EXPECT_LT(net.flow(0).sender().bytes_in_flight(), 400 * kDefaultPacketBytes);
}

}  // namespace
}  // namespace libra
