// Tests for the CoDel queue discipline of Link and the Compound TCP combined
// baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "classic/bbr.h"
#include "classic/compound.h"
#include "classic/cubic.h"
#include "classic/dctcp.h"
#include "harness/runner.h"
#include "sim/network.h"

namespace libra {
namespace {

constexpr std::int64_t kMss = kDefaultPacketBytes;

LinkConfig codel_link(RateBps rate = mbps(24)) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(rate);
  cfg.buffer_bytes = 1'000'000;
  cfg.propagation_delay = msec(15);
  cfg.codel = CodelParams{};
  return cfg;
}

TEST(Codel, DeliversBelowTarget) {
  // A paced trickle well under capacity never builds a standing queue; CoDel
  // must not drop anything.
  EventQueue q;
  Link link(q, codel_link(mbps(24)));
  int delivered = 0, dropped = 0;
  link.set_deliver([&](const Packet&) { ++delivered; });
  link.set_drop([&](const Packet&) { ++dropped; });
  for (int i = 0; i < 100; ++i) {
    Packet p;
    p.seq = static_cast<std::uint64_t>(i);
    q.run_until(msec(10) * i);
    link.send(p);
  }
  q.run_until(sec(5));
  EXPECT_EQ(delivered, 100);
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(link.codel_drops(), 0);
}

TEST(Codel, DropsWhenSojournPersistsAboveTarget) {
  // Saturate a slow queue: the standing sojourn exceeds the 5 ms target and
  // CoDel must start shedding.
  EventQueue q;
  Link link(q, codel_link(mbps(2)));
  int dropped = 0;
  link.set_drop([&](const Packet&) { ++dropped; });
  link.set_deliver([](const Packet&) {});
  for (int i = 0; i < 400; ++i) {
    Packet p;
    p.seq = static_cast<std::uint64_t>(i);
    q.run_until(msec(2) * i);  // 6 Mbps offered into a 2 Mbps queue
    link.send(p);
  }
  q.run_until(sec(10));
  EXPECT_GT(link.codel_drops(), 0);
}

TEST(Codel, MarkModeKeepsTheDropStateScheduleIdentical) {
  // RFC 8289 §4.1: with ECN, a control-law firing CE-marks the head instead
  // of dropping it, but the dropping-state machine (count escalation,
  // drop_next_ cadence, re-entry memory) must be untouched. Drive two queues
  // — one per mode — with the same deterministic arrival pattern and compare
  // the exact firing instants while both stay deeply backlogged. 750 packets
  // at 6 Mbps into 2 Mbps keeps the escalated cadence (interval/sqrt(count))
  // well above the 6 ms serialization slot, so a firing always resolves at
  // the same dequeue instant in both modes.
  constexpr int kPackets = 750;
  constexpr SimTime kLoadEnd = msec(2) * kPackets;
  auto cfg = [] {
    LinkConfig c = codel_link(mbps(2));
    c.buffer_bytes = 2'000'000;  // never overflow: all drops are CoDel's
    return c;
  };

  EventQueue qd;
  Link drop_mode(qd, cfg());
  std::vector<SimTime> drop_times;
  drop_mode.set_deliver([](const Packet&) {});
  drop_mode.set_drop([&](const Packet&) { drop_times.push_back(qd.now()); });

  EventQueue qm;
  LinkConfig mark_cfg = cfg();
  mark_cfg.codel->ecn_mark = true;
  Link mark_mode(qm, mark_cfg);
  std::vector<SimTime> mark_times;
  // A marked delivery left the queue exactly propagation_delay earlier.
  mark_mode.set_deliver([&](const Packet& p) {
    if (p.ce_marked) mark_times.push_back(qm.now() - mark_cfg.propagation_delay);
  });
  mark_mode.set_drop([](const Packet&) { FAIL() << "ECT packet dropped in mark mode"; });

  for (int i = 0; i < kPackets; ++i) {
    Packet p;
    p.seq = static_cast<std::uint64_t>(i);
    p.ecn_capable = true;
    qd.run_until(msec(2) * i);
    drop_mode.send(p);
    qm.run_until(msec(2) * i);
    mark_mode.send(p);
  }
  qd.run_until(sec(10));
  qm.run_until(sec(10));

  ASSERT_GT(drop_times.size(), 10u);
  EXPECT_EQ(mark_mode.codel_drops(), 0);
  EXPECT_EQ(static_cast<std::size_t>(mark_mode.codel_marks()),
            mark_times.size());
  // Compare the schedules over the loaded phase, where both queues are
  // backlogged identically. (Past it the drop-mode queue, thinned by its own
  // drops, drains earlier and the trajectories legitimately diverge.)
  auto clip = [](std::vector<SimTime> v, SimTime end) {
    v.erase(std::find_if(v.begin(), v.end(),
                         [end](SimTime t) { return t >= end; }),
            v.end());
    return v;
  };
  const std::vector<SimTime> drops = clip(drop_times, kLoadEnd);
  const std::vector<SimTime> marks = clip(mark_times, kLoadEnd);
  ASSERT_GT(drops.size(), 10u);
  EXPECT_EQ(drops, marks)
      << "mark mode changed the control-law firing schedule";
}

TEST(Codel, NonEctPacketsStillDropInMarkMode) {
  // §4.1 marks only ECT traffic: a non-ECT packet hitting a firing drops
  // exactly as in drop mode.
  EventQueue q;
  LinkConfig cfg = codel_link(mbps(2));
  cfg.codel->ecn_mark = true;
  Link link(q, cfg);
  int dropped = 0;
  link.set_deliver([](const Packet&) {});
  link.set_drop([&](const Packet&) { ++dropped; });
  for (int i = 0; i < 400; ++i) {
    Packet p;
    p.seq = static_cast<std::uint64_t>(i);
    // ecn_capable left false
    q.run_until(msec(2) * i);
    link.send(p);
  }
  q.run_until(sec(10));
  EXPECT_GT(link.codel_drops(), 0);
  EXPECT_EQ(link.codel_marks(), 0);
  EXPECT_EQ(dropped, link.codel_drops());
}

TEST(Codel, ReentryAfterLongGapRestartsCount) {
  // RFC 8289 §4.2: control-law memory across dropping episodes expires after
  // 16 x interval of not dropping. An episode that starts long after the
  // previous one must restart from count == 1, not reuse the stale count.
  EventQueue q;
  Link link(q, codel_link(mbps(2)));
  link.set_deliver([](const Packet&) {});
  link.set_drop([](const Packet&) {});
  std::uint64_t seq = 0;
  // 6 Mbps into a 2 Mbps queue for 3 s: the drop cadence escalates.
  for (int i = 0; i < 1500; ++i) {
    Packet p;
    p.seq = seq++;
    q.run_until(msec(2) * i);
    link.send(p);
  }
  q.run_until(sec(10));  // drain completely
  ASSERT_GT(link.codel_drop_count(), 1);
  ASSERT_FALSE(link.codel_dropping());

  // Idle far past 16 x interval (1.6 s), then saturate again and stop at the
  // instant dropping re-engages.
  const SimTime resume = sec(12);
  bool reentered = false;
  for (int i = 0; i < 1500 && !reentered; ++i) {
    Packet p;
    p.seq = seq++;
    q.run_until(resume + msec(2) * i);
    link.send(p);
    reentered = link.codel_dropping();
  }
  ASSERT_TRUE(reentered);
  EXPECT_EQ(link.codel_drop_count(), 1);
}

TEST(Codel, QuickReentryResumesFasterCadence) {
  // RFC 8289 §4.2: a dropping episode that begins shortly after the previous
  // one ended resumes from the drop rate the previous episode added
  // (count - lastcount), so persistent overload escalates across brief
  // below-target dips instead of probing up from scratch every time.
  EventQueue q;
  LinkConfig cfg = codel_link(mbps(2));
  cfg.buffer_bytes = 30'000;  // small backlog => the queue can drain quickly
  Link link(q, std::move(cfg));
  link.set_deliver([](const Packet&) {});
  link.set_drop([](const Packet&) {});
  std::uint64_t seq = 0;
  for (int i = 0; i < 1500; ++i) {
    Packet p;
    p.seq = seq++;
    q.run_until(msec(2) * i);
    link.send(p);
  }
  ASSERT_TRUE(link.codel_dropping());
  // Track the count while the episode winds down (the queue drains in
  // ~120 ms once the load stops).
  std::int64_t at_exit = link.codel_drop_count();
  SimTime t = sec(3);
  while (link.codel_dropping() && t < sec(4)) {
    at_exit = link.codel_drop_count();
    t += msec(5);
    q.run_until(t);
  }
  ASSERT_FALSE(link.codel_dropping());
  ASSERT_GT(at_exit, 2);

  // Saturate again immediately: re-entry lands well inside the 16-interval
  // window, so the episode resumes with count > 1 (bounded by the previous
  // episode's contribution).
  bool reentered = false;
  for (int i = 0; i < 1500 && !reentered; ++i) {
    Packet p;
    p.seq = seq++;
    q.run_until(t + msec(2) * i);
    link.send(p);
    reentered = link.codel_dropping();
  }
  ASSERT_TRUE(reentered);
  EXPECT_GT(link.codel_drop_count(), 1);
  EXPECT_LE(link.codel_drop_count(), at_exit);
}

TEST(Compound, ZeroRttAckDoesNotConsumeAdjustmentSlot) {
  // Regression for the shared RTT guard: an ACK without RTT samples must not
  // stamp the once-per-RTT delay-adjustment slot. With the bug, the real ACK
  // right behind it was skipped and the delay window stayed frozen.
  CompoundTcp cc;
  AckEvent degenerate{msec(1), 0, msec(1), /*rtt=*/0, kMss, 0, mbps(10),
                      /*min_rtt=*/0};
  cc.on_ack(degenerate);
  EXPECT_EQ(cc.delay_window(), 0);
  AckEvent real{msec(2), 1, msec(2) - msec(50), msec(50), kMss, 0, mbps(10),
                msec(50)};
  cc.on_ack(real);
  EXPECT_GT(cc.delay_window(), 0);
}

TEST(Codel, KeepsCubicDelayLow) {
  // The Sec. 2 claim: CUBIC + CoDel achieves low queueing delay (at the cost
  // of in-network support). Compare against droptail with a deep buffer.
  Network codel(codel_link(mbps(24)));
  codel.add_flow(std::make_unique<Cubic>());
  codel.run_until(sec(15));
  double codel_delay = codel.flow(0).mean_rtt_in(sec(5), sec(15));

  LinkConfig deep;
  deep.capacity = std::make_shared<ConstantTrace>(mbps(24));
  deep.buffer_bytes = 1'000'000;
  deep.propagation_delay = msec(15);
  Network droptail(std::move(deep));
  droptail.add_flow(std::make_unique<Cubic>());
  droptail.run_until(sec(15));
  double droptail_delay = droptail.flow(0).mean_rtt_in(sec(5), sec(15));

  EXPECT_LT(codel_delay, droptail_delay * 0.5);
  EXPECT_LT(codel_delay, 60.0);
}

TEST(Codel, SustainsThroughputWhileDropping) {
  Network net(codel_link(mbps(24)));
  net.add_flow(std::make_unique<Cubic>());
  net.run_until(sec(15));
  EXPECT_GT(net.flow(0).throughput_in(sec(5), sec(15)), mbps(15));
}

TEST(Codel, NetworkMatchesParentCodelNetworkExactly) {
  // The exact values below were recorded with the separate CoDel queue class
  // and dumbbell engine that Link and Network replaced. That engine acked
  // after a fixed 15 ms, which equals Network's ack delay only at 15 ms of
  // propagation. That run put non-ECT senders on a mark-mode link, which
  // drops exactly where drop mode does, so a drop-mode link reproduces it.
  LinkConfig cfg = codel_link(mbps(24));
  cfg.stochastic_loss = 0.001;
  cfg.seed = 7;
  Network net(cfg);
  for (int i = 0; i < 4; ++i) {
    std::unique_ptr<CongestionControl> cca;
    if (i % 2 == 0) {
      cca = std::make_unique<Cubic>();
    } else {
      cca = std::make_unique<Bbr>();
    }
    net.add_flow(std::move(cca), msec(100) * i);
  }
  net.run_until(sec(20));

  EXPECT_EQ(net.events().processed(), 166550u);
  EXPECT_EQ(net.link().codel_drops(), 3735);
  EXPECT_EQ(net.link().codel_marks(), 0);
  const std::int64_t want[4][3] = {{2752, 2618, 131},
                                   {12093, 10844, 1191},
                                   {1836, 1715, 118},
                                   {27029, 24637, 2327}};
  for (int i = 0; i < 4; ++i) {
    const Sender& s = net.flow(i).sender();
    EXPECT_EQ(s.packets_sent(), want[i][0]) << "flow " << i;
    EXPECT_EQ(s.packets_acked(), want[i][1]) << "flow " << i;
    EXPECT_EQ(s.packets_lost(), want[i][2]) << "flow " << i;
  }
}

TEST(Codel, MarkModeLinkMakesScenarioFlowsEct) {
  // A CoDel link in mark mode is a marking link: its flows must be ECT, so
  // every control-law firing CE-marks a packet that DCTCP then reacts to,
  // and none is dropped.
  Scenario s = wired_scenario(48, msec(30), 600 * 1000);
  s.link.codel = CodelParams{.ecn_mark = true};
  s.duration = sec(20);
  auto net = run_scenario(s, {{[] { return std::make_unique<Dctcp>(); }}}, 1);
  EXPECT_GT(net->link().codel_marks(), 0);
  EXPECT_EQ(net->link().codel_drops(), 0);
}

TEST(Codel, RejectsDegenerateSettings) {
  // A non-positive target or interval breaks the control law (a zero
  // interval drops far more than the default), and a zero buffer drops every
  // packet.
  EventQueue q;
  LinkConfig no_target = codel_link(mbps(2));
  no_target.codel->target = 0;
  EXPECT_THROW(Link(q, no_target), std::invalid_argument);
  LinkConfig no_interval = codel_link(mbps(2));
  no_interval.codel->interval = 0;
  EXPECT_THROW(Link(q, no_interval), std::invalid_argument);
  LinkConfig no_buffer = codel_link(mbps(2));
  no_buffer.buffer_bytes = 0;
  EXPECT_THROW(Link(q, no_buffer), std::invalid_argument);
}

AckEvent ack_at(SimTime now, std::uint64_t seq, SimDuration rtt = msec(50),
                SimDuration min_rtt = msec(50)) {
  return AckEvent{now, seq, now - rtt, rtt, kMss, 0, mbps(10), min_rtt};
}

TEST(Compound, DelayWindowGrowsOnEmptyQueue) {
  CompoundTcp cc;
  for (int i = 0; i < 60; ++i)
    cc.on_ack(ack_at(msec(60) * i, static_cast<std::uint64_t>(i)));
  EXPECT_GT(cc.delay_window(), 0);
}

TEST(Compound, DelayWindowRetreatsUnderQueueing) {
  CompoundTcp cc;
  for (int i = 0; i < 60; ++i)
    cc.on_ack(ack_at(msec(60) * i, static_cast<std::uint64_t>(i)));
  std::int64_t grown = cc.delay_window();
  ASSERT_GT(grown, 0);
  // Deep standing queue: diff >> gamma.
  SimTime t = sec(10);
  for (int i = 0; i < 60; ++i) {
    cc.on_ack(ack_at(t, 100 + static_cast<std::uint64_t>(i), msec(200), msec(50)));
    t += msec(210);
  }
  EXPECT_LT(cc.delay_window(), grown);
}

TEST(Compound, LossHalvesCompoundWindow) {
  CompoundTcp cc;
  for (int i = 0; i < 60; ++i) {
    cc.on_packet_sent({msec(60) * i, static_cast<std::uint64_t>(i), kMss, 0});
    cc.on_ack(ack_at(msec(60) * i, static_cast<std::uint64_t>(i)));
  }
  std::int64_t before = cc.cwnd_bytes();
  cc.on_loss({sec(10), 30, sec(9), kMss, 0, false});
  EXPECT_LT(cc.cwnd_bytes(), before);
  EXPECT_GE(cc.cwnd_bytes(), before / 4);
}

TEST(Compound, FillsFriendlyLink) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(24));
  cfg.buffer_bytes = 150'000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));
  net.add_flow(std::make_unique<CompoundTcp>());
  net.run_until(sec(20));
  EXPECT_GT(net.link_utilization(sec(5), sec(20)), 0.85);
}

}  // namespace
}  // namespace libra
