#include <gtest/gtest.h>

#include <cmath>

#include "classic/bbr.h"
#include "classic/copa.h"
#include "classic/cubic.h"
#include "classic/dctcp.h"
#include "classic/illinois.h"
#include "classic/newreno.h"
#include "classic/sprout_ewma.h"
#include "classic/vegas.h"
#include "classic/westwood.h"
#include "sim/network.h"

namespace libra {
namespace {

constexpr std::int64_t kMss = kDefaultPacketBytes;

AckEvent ack_at(SimTime now, std::uint64_t seq, SimDuration rtt = msec(50),
                SimDuration min_rtt = msec(50), RateBps delivery = mbps(10)) {
  return AckEvent{now, seq, now - rtt, rtt, kMss, 0, delivery, min_rtt};
}

LossEvent loss_at(SimTime now, std::uint64_t seq, bool timeout = false) {
  return LossEvent{now, seq, now - msec(50), kMss, 0, timeout};
}

TEST(LossEpoch, OnePerFlight) {
  LossEpochTracker t;
  t.on_sent(100);
  EXPECT_TRUE(t.should_react(50));
  EXPECT_FALSE(t.should_react(80));   // same flight
  EXPECT_FALSE(t.should_react(100));  // boundary belongs to the old flight
  t.on_sent(200);
  EXPECT_TRUE(t.should_react(150));   // new flight
}

TEST(NewReno, SlowStartDoublesPerRtt) {
  NewReno cc;
  std::int64_t before = cc.cwnd_bytes();
  // One ACK per outstanding packet: +1 MSS each.
  for (int i = 0; i < 10; ++i) cc.on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i)));
  EXPECT_EQ(cc.cwnd_bytes(), before + 10 * kMss);
}

TEST(NewReno, HalvesOnLoss) {
  NewReno cc;
  for (int i = 0; i < 20; ++i) {
    cc.on_packet_sent({msec(i), static_cast<std::uint64_t>(i), kMss, 0});
    cc.on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i)));
  }
  std::int64_t before = cc.cwnd_bytes();
  cc.on_loss(loss_at(msec(30), 10));
  EXPECT_EQ(cc.cwnd_bytes(), std::max<std::int64_t>(before / 2, 2 * kMss));
}

TEST(NewReno, SecondLossSameFlightIgnored) {
  NewReno cc;
  for (int i = 0; i < 20; ++i) {
    cc.on_packet_sent({msec(i), static_cast<std::uint64_t>(i), kMss, 0});
    cc.on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i)));
  }
  cc.on_loss(loss_at(msec(30), 10));
  std::int64_t after_first = cc.cwnd_bytes();
  cc.on_loss(loss_at(msec(31), 12));
  EXPECT_EQ(cc.cwnd_bytes(), after_first);
}

TEST(NewReno, TimeoutCollapsesToOneMss) {
  NewReno cc;
  for (int i = 0; i < 20; ++i) {
    cc.on_packet_sent({msec(i), static_cast<std::uint64_t>(i), kMss, 0});
    cc.on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i)));
  }
  cc.on_loss(loss_at(msec(30), 10, /*timeout=*/true));
  EXPECT_EQ(cc.cwnd_bytes(), kMss);
}

TEST(Cubic, SlowStartThenMultiplicativeDecrease) {
  Cubic cc;
  std::int64_t initial = cc.cwnd_bytes();
  for (int i = 0; i < 10; ++i) {
    cc.on_packet_sent({msec(i), static_cast<std::uint64_t>(i), kMss, 0});
    cc.on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(cc.cwnd_bytes(), initial + 10 * kMss);
  std::int64_t before = cc.cwnd_bytes();
  cc.on_loss(loss_at(msec(20), 5));
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()),
              0.7 * static_cast<double>(before),
              static_cast<double>(kMss));
}

TEST(Cubic, WindowFollowsCubicCurveAfterLoss) {
  // After a reduction, the window must regrow toward w_max along a cubic in
  // time: slower near w_max (plateau), then accelerating past it.
  Cubic cc;
  for (int i = 0; i < 60; ++i) {
    cc.on_packet_sent({msec(i), static_cast<std::uint64_t>(i), kMss, 0});
    cc.on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i)));
  }
  cc.on_loss(loss_at(msec(100), 30));
  double w_max = cc.w_max_packets();
  EXPECT_GT(w_max, 0);

  // Feed steady ACKs for simulated seconds and track growth.
  std::uint64_t seq = 100;
  SimTime t = msec(200);
  auto grow = [&](SimDuration span) {
    std::int64_t start = cc.cwnd_bytes();
    SimTime end = t + span;
    while (t < end) {
      cc.on_packet_sent({t, seq, kMss, 0});
      cc.on_ack(ack_at(t, seq));
      ++seq;
      t += msec(10);
    }
    return cc.cwnd_bytes() - start;
  };
  std::int64_t early = grow(sec(2));   // approaching the plateau
  std::int64_t late = grow(sec(6));    // past K: convex growth resumes
  EXPECT_GT(late, early);
  // And the plateau is near w_max.
  EXPECT_GT(static_cast<double>(cc.cwnd_bytes()) / kMss, w_max);
}

TEST(Cubic, FastConvergenceShrinksWmax) {
  Cubic cc;
  for (int i = 0; i < 40; ++i) {
    cc.on_packet_sent({msec(i), static_cast<std::uint64_t>(i), kMss, 0});
    cc.on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i)));
  }
  cc.on_loss(loss_at(msec(50), 20));
  double first_wmax = cc.w_max_packets();
  // Second loss at a smaller window: fast convergence sets w_max below cwnd.
  cc.on_packet_sent({msec(60), 100, kMss, 0});
  cc.on_loss(loss_at(msec(70), 100));
  EXPECT_LT(cc.w_max_packets(), first_wmax);
}

TEST(Cubic, SetCwndKeepsSlowStartCapability) {
  Cubic cc;
  cc.set_cwnd_bytes(20 * kMss);
  EXPECT_EQ(cc.cwnd_bytes(), 20 * kMss);
  // No loss yet: ssthresh is still infinite, so growth is slow-start fast.
  cc.on_ack(ack_at(msec(1), 1));
  EXPECT_EQ(cc.cwnd_bytes(), 21 * kMss);
}

TEST(Cubic, SetCwndFloorsAtTwoMss) {
  Cubic cc;
  cc.set_cwnd_bytes(0);
  EXPECT_EQ(cc.cwnd_bytes(), 2 * kMss);
}

TEST(Bbr, StartupReachesProbeBwOnPlateau) {
  Bbr bbr;
  EXPECT_EQ(bbr.mode(), Bbr::Mode::kStartup);
  // Feed rounds with a flat 10 Mbps delivery rate; after 3 flat rounds BBR
  // must declare full bandwidth, drain, then cycle PROBE_BW.
  std::uint64_t seq = 0;
  SimTime t = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 10; ++i) {
      bbr.on_packet_sent({t, seq, kMss, 10 * kMss});
      AckEvent ev = ack_at(t, seq, msec(50), msec(50), mbps(10));
      ev.bytes_in_flight = (round > 4) ? 4 * kMss : 10 * kMss;  // drained later
      bbr.on_ack(ev);
      ++seq;
      t += msec(5);
    }
  }
  EXPECT_EQ(bbr.mode(), Bbr::Mode::kProbeBw);
  EXPECT_NEAR(bbr.bottleneck_bw(), mbps(10), mbps(0.5));
}

TEST(Bbr, PacingFollowsGainTimesBandwidth) {
  Bbr bbr;
  std::uint64_t seq = 0;
  SimTime t = 0;
  // Two flat-bandwidth acks: full-bw detection needs 3 flat rounds, so BBR is
  // still in STARTUP with pacing = 2.885 x 10 Mbps.
  for (int i = 0; i < 2; ++i) {
    bbr.on_packet_sent({t, seq, kMss, 10 * kMss});
    bbr.on_ack(ack_at(t, seq, msec(50), msec(50), mbps(10)));
    ++seq;
    t += msec(5);
  }
  ASSERT_EQ(bbr.mode(), Bbr::Mode::kStartup);
  EXPECT_NEAR(bbr.pacing_rate(), 2.885 * mbps(10), mbps(0.5));
}

TEST(Bbr, CwndIsGainTimesBdp) {
  Bbr bbr;
  std::uint64_t seq = 0;
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) {
    bbr.on_packet_sent({t, seq, kMss, 10 * kMss});
    bbr.on_ack(ack_at(t, seq, msec(100), msec(100), mbps(12)));
    ++seq;
    t += msec(5);
  }
  // BDP = 12 Mbps * 100 ms = 150 KB; cwnd_gain 2 -> 300 KB.
  EXPECT_NEAR(static_cast<double>(bbr.cwnd_bytes()), 300e3, 15e3);
}

TEST(Bbr, ProbeRttAfterMinRttExpiry) {
  BbrParams params;
  params.min_rtt_window = msec(500);  // shrink for the test
  Bbr bbr(params);
  std::uint64_t seq = 0;
  SimTime t = 0;
  // RTT never dips below 50 ms again; after the window expires ProbeRTT fires.
  bool saw_probe_rtt = false;
  for (int i = 0; i < 400; ++i) {
    bbr.on_packet_sent({t, seq, kMss, 10 * kMss});
    bbr.on_ack(ack_at(t, seq, msec(60), msec(50), mbps(10)));
    if (bbr.mode() == Bbr::Mode::kProbeRtt) saw_probe_rtt = true;
    ++seq;
    t += msec(5);
  }
  EXPECT_TRUE(saw_probe_rtt);
}

TEST(Bbr, ProbeRttShrinksCwnd) {
  BbrParams params;
  params.min_rtt_window = msec(200);
  Bbr bbr(params);
  std::uint64_t seq = 0;
  SimTime t = 0;
  while (bbr.mode() != Bbr::Mode::kProbeRtt && t < sec(5)) {
    bbr.on_packet_sent({t, seq, kMss, 10 * kMss});
    bbr.on_ack(ack_at(t, seq, msec(60), msec(50), mbps(10)));
    ++seq;
    t += msec(5);
  }
  ASSERT_EQ(bbr.mode(), Bbr::Mode::kProbeRtt);
  EXPECT_EQ(bbr.cwnd_bytes(), 4 * kMss);
}

// Drives a BBR into PROBE_RTT and returns the time just after entry.
SimTime drive_to_probe_rtt(Bbr& bbr, std::uint64_t& seq, SimTime t) {
  while (bbr.mode() != Bbr::Mode::kProbeRtt && t < sec(5)) {
    bbr.on_packet_sent({t, seq, kMss, 10 * kMss});
    bbr.on_ack(ack_at(t, seq, msec(60), msec(50), mbps(10)));
    ++seq;
    t += msec(5);
  }
  return t;
}

TEST(Bbr, ProbeRttExitsOnTickWithoutAcks) {
  // Regression: the ACK-silent exit path. If the connection goes quiet while
  // in PROBE_RTT (outage, app-limited lull), the dwell timer alone must end
  // the probe — previously only the tick path checked probe_rtt_done_ with
  // its own guard, and the two copies could drift.
  BbrParams params;
  params.min_rtt_window = msec(200);
  Bbr bbr(params);
  std::uint64_t seq = 0;
  SimTime t = drive_to_probe_rtt(bbr, seq, 0);
  ASSERT_EQ(bbr.mode(), Bbr::Mode::kProbeRtt);
  // No ACKs from here on: ticks alone must exit once the 200 ms dwell passes.
  bbr.on_tick(t + msec(100));
  EXPECT_EQ(bbr.mode(), Bbr::Mode::kProbeRtt);  // dwell not yet served
  bbr.on_tick(t + params.probe_rtt_duration + msec(50));
  EXPECT_NE(bbr.mode(), Bbr::Mode::kProbeRtt);
}

TEST(Bbr, ProbeRttExitsOnAck) {
  // The ACK path must exit through the same consolidated logic.
  BbrParams params;
  params.min_rtt_window = msec(200);
  Bbr bbr(params);
  std::uint64_t seq = 0;
  SimTime t = drive_to_probe_rtt(bbr, seq, 0);
  ASSERT_EQ(bbr.mode(), Bbr::Mode::kProbeRtt);
  t += params.probe_rtt_duration + msec(50);
  bbr.on_packet_sent({t, seq, kMss, 2 * kMss});
  bbr.on_ack(ack_at(t, seq, msec(50), msec(50), mbps(10)));
  EXPECT_NE(bbr.mode(), Bbr::Mode::kProbeRtt);
}

TEST(Bbr, IgnoresIndividualLosses) {
  Bbr bbr;
  std::uint64_t seq = 0;
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) {
    bbr.on_packet_sent({t, seq, kMss, 10 * kMss});
    bbr.on_ack(ack_at(t, seq, msec(50), msec(50), mbps(10)));
    ++seq;
    t += msec(5);
  }
  RateBps before = bbr.pacing_rate();
  bbr.on_loss(loss_at(t, 2));
  EXPECT_DOUBLE_EQ(bbr.pacing_rate(), before);
}

// Runs one policed "round" against a Bbr: a flight of `n` packets at time t,
// half delivered at `delivery`, half lost — the steady signature of a
// token-bucket policer (loss fraction 0.5 >= lt_loss_thresh).
void policed_round(Bbr& bbr, std::uint64_t& seq, SimTime t, RateBps delivery) {
  const std::uint64_t base = seq;
  for (int i = 0; i < 10; ++i) bbr.on_packet_sent({t, seq++, kMss, 10 * kMss});
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t s = base + static_cast<std::uint64_t>(i);
    if (i % 2 == 1) {
      bbr.on_loss(loss_at(t + msec(20), s));
    } else {
      bbr.on_ack(ack_at(t + msec(20), s, msec(20), msec(20), delivery));
    }
  }
}

TEST(Bbr, LtBwEngagesWithinTwoIntervalsOfPolicerOnset) {
  // Two agreeing 4-round intervals is the minimum evidence the long-term
  // estimator needs, so it must pin within 8-9 rounds of the first loss.
  Bbr bbr;
  std::uint64_t seq = 0;
  SimTime t = 0;
  int rounds_to_engage = -1;
  for (int round = 0; round < 12; ++round) {
    policed_round(bbr, seq, t, mbps(10));
    t += msec(20);
    if (bbr.lt_use_bw()) {
      rounds_to_engage = round + 1;
      break;
    }
  }
  ASSERT_GT(rounds_to_engage, 0) << "lt_bw never engaged";
  EXPECT_LE(rounds_to_engage, 9);
  // Pinned: pacing is exactly lt_bw, the gain cycle is bypassed. The rate is
  // the *delivered goodput* (5 x 1500 B per 20 ms = 3 Mbps), not the probe.
  EXPECT_NEAR(bbr.lt_bw(), mbps(3), mbps(0.5));
  EXPECT_DOUBLE_EQ(bbr.pacing_rate(), static_cast<double>(bbr.lt_bw()));
}

TEST(Bbr, LtBwExpiresAndReprobesAfterMaxRtts) {
  Bbr bbr;
  std::uint64_t seq = 0;
  SimTime t = 0;
  for (int round = 0; round < 12 && !bbr.lt_use_bw(); ++round) {
    policed_round(bbr, seq, t, mbps(10));
    t += msec(20);
  }
  ASSERT_TRUE(bbr.lt_use_bw());
  ASSERT_EQ(bbr.mode(), Bbr::Mode::kProbeBw);
  // Clean rounds from here: after lt_bw_max_rtts round starts the model must
  // forget the policer and resume probing with the gain cycle.
  for (int round = 0; round < BbrParams{}.lt_bw_max_rtts + 2; ++round) {
    const std::uint64_t base = seq;
    for (int i = 0; i < 10; ++i)
      bbr.on_packet_sent({t, seq++, kMss, 10 * kMss});
    for (int i = 0; i < 10; ++i)
      bbr.on_ack(ack_at(t + msec(20), base + static_cast<std::uint64_t>(i),
                        msec(20), msec(20), mbps(10)));
    t += msec(20);
  }
  EXPECT_FALSE(bbr.lt_use_bw());
}

TEST(Vegas, HoldsWindowInsideAlphaBetaBand) {
  Vegas cc;
  // Feed RTT = min RTT (empty queue) and let slow start run: window grows.
  std::int64_t start = cc.cwnd_bytes();
  for (int i = 0; i < 30; ++i)
    cc.on_ack(ack_at(msec(10) * i, static_cast<std::uint64_t>(i)));
  EXPECT_GT(cc.cwnd_bytes(), start);
}

TEST(Vegas, BacksOffWhenQueueDeep) {
  Vegas cc;
  // First build a large window.
  for (int i = 0; i < 50; ++i)
    cc.on_ack(ack_at(msec(10) * i, static_cast<std::uint64_t>(i)));
  std::int64_t grown = cc.cwnd_bytes();
  // Now RTT inflates to 3x min: diff >> beta -> shrink once per RTT.
  SimTime t = sec(10);
  for (int i = 0; i < 40; ++i) {
    cc.on_ack(ack_at(t, 100 + static_cast<std::uint64_t>(i), msec(150), msec(50)));
    t += msec(160);
  }
  EXPECT_LT(cc.cwnd_bytes(), grown);
}

TEST(Westwood, LossSetsWindowToMeasuredBdp) {
  Westwood cc;
  // Steady 8 Mbps delivery at 50 ms min RTT -> BDP = 50 KB.
  for (int i = 0; i < 100; ++i) {
    cc.on_packet_sent({msec(i), static_cast<std::uint64_t>(i), kMss, 0});
    cc.on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i), msec(50), msec(50), mbps(8)));
  }
  cc.on_loss(loss_at(msec(200), 50));
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 50e3, 10e3);
}

TEST(Illinois, AlphaShrinksWithDelay) {
  Illinois low_delay, high_delay;
  // Drive both past slow start with one loss.
  for (auto* cc : {&low_delay, &high_delay}) {
    for (int i = 0; i < 30; ++i) {
      cc->on_packet_sent({msec(i), static_cast<std::uint64_t>(i), kMss, 0});
      cc->on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i)));
    }
    cc->on_loss(loss_at(msec(50), 15));
  }
  std::int64_t base_low = low_delay.cwnd_bytes();
  std::int64_t base_high = high_delay.cwnd_bytes();
  // low_delay sees empty queue; high_delay sees an inflated RTT with a known
  // larger max RTT (so d_frac is meaningfully large).
  for (int i = 0; i < 60; ++i) {
    low_delay.on_ack(ack_at(sec(1) + msec(i), 100 + static_cast<std::uint64_t>(i),
                            msec(50), msec(50)));
    high_delay.on_ack(ack_at(sec(1) + msec(i), 100 + static_cast<std::uint64_t>(i),
                             msec(200), msec(50)));
  }
  std::int64_t gain_low = low_delay.cwnd_bytes() - base_low;
  std::int64_t gain_high = high_delay.cwnd_bytes() - base_high;
  EXPECT_GT(gain_low, gain_high);
}

TEST(Dctcp, AlphaConvergesToCeFraction) {
  // Fixed marking pattern: 3 of every 10 ACKs carry CE. The per-window EWMA
  // (g = 1/16) must converge from its kernel-style initial 1.0 to the true
  // CE fraction.
  Dctcp cc;
  EXPECT_DOUBLE_EQ(cc.alpha(), 1.0);
  SimTime t = 0;
  std::uint64_t seq = 0;
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t base = seq;
    for (int i = 0; i < 10; ++i) cc.on_packet_sent({t, seq++, kMss, 0});
    for (int i = 0; i < 10; ++i) {
      AckEvent a = ack_at(t + msec(10), base + static_cast<std::uint64_t>(i));
      a.ecn_ce = i < 3;
      cc.on_ack(a);
    }
    t += msec(20);
  }
  EXPECT_NEAR(cc.alpha(), 0.3, 0.02);

  // The pattern goes clean: alpha must decay toward zero.
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t base = seq;
    for (int i = 0; i < 10; ++i) cc.on_packet_sent({t, seq++, kMss, 0});
    for (int i = 0; i < 10; ++i)
      cc.on_ack(ack_at(t + msec(10), base + static_cast<std::uint64_t>(i)));
    t += msec(20);
  }
  EXPECT_LT(cc.alpha(), 0.01);
}

TEST(Dctcp, CeReactionAtMostOncePerWindow) {
  Dctcp cc;
  std::uint64_t seq = 0;
  for (int i = 0; i < 10; ++i) cc.on_packet_sent({0, seq++, kMss, 0});
  const std::int64_t before = cc.cwnd_bytes();
  AckEvent a = ack_at(msec(10), 0);
  a.ecn_ce = true;
  cc.on_ack(a);
  // alpha is still 1.0 on the first mark: the full classic halving.
  EXPECT_EQ(cc.cwnd_bytes(), before / 2);
  const std::int64_t after_first = cc.cwnd_bytes();
  AckEvent b = ack_at(msec(11), 1);
  b.ecn_ce = true;
  cc.on_ack(b);
  // Same flight: no second cut — just the normal sub-MSS avoidance growth.
  EXPECT_GE(cc.cwnd_bytes(), after_first);
  EXPECT_LT(cc.cwnd_bytes(), after_first + kMss);
  // A CE mark on data from the next flight re-arms the reaction.
  for (int i = 0; i < 5; ++i) cc.on_packet_sent({msec(12), seq++, kMss, 0});
  const std::int64_t before2 = cc.cwnd_bytes();
  AckEvent c = ack_at(msec(20), 10);
  c.ecn_ce = true;
  cc.on_ack(c);
  EXPECT_LT(cc.cwnd_bytes(), before2);
}

TEST(Dctcp, LossStillMeansLoss) {
  // The alpha machinery only softens ECN-signalled congestion; a real loss
  // falls back to the classic halving (and slow-start exit).
  Dctcp cc;
  std::uint64_t seq = 0;
  for (int i = 0; i < 20; ++i) {
    cc.on_packet_sent({msec(i), seq, kMss, 0});
    cc.on_ack(ack_at(msec(i) + msec(5), seq));
    ++seq;
  }
  const std::int64_t grown = cc.cwnd_bytes();
  cc.on_loss(loss_at(msec(40), seq - 1));
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()),
              static_cast<double>(grown) / 2.0, static_cast<double>(kMss));
}

TEST(Copa, GrowsOnEmptyQueue) {
  Copa cc;
  std::int64_t start = cc.cwnd_bytes();
  for (int i = 0; i < 40; ++i)
    cc.on_ack(ack_at(msec(20) * i, static_cast<std::uint64_t>(i)));
  EXPECT_GT(cc.cwnd_bytes(), start);
}

TEST(Copa, ShrinksWhenAboveTarget) {
  Copa cc;
  for (int i = 0; i < 60; ++i)
    cc.on_ack(ack_at(msec(20) * i, static_cast<std::uint64_t>(i)));
  std::int64_t grown = cc.cwnd_bytes();
  // Standing queue of 100 ms: target rate = 1/(0.5*0.1) = 20 pkts/s, tiny.
  // Phase 2 follows phase 1 after a 200 ms pause: long enough that the
  // standing-RTT filter (100 ms window) sees only the inflated RTT — so the
  // first ACK flips the direction and resets phase 1's accumulated velocity
  // — yet short enough that Copa's windowed min-RTT baseline (min_rtt_window,
  // default 2 s) still holds the true 50 ms floor. After a longer idle gap
  // the window would re-seed from the inflated RTT instead.
  SimTime t = msec(20) * 60 + msec(200);
  for (int i = 0; i < 60; ++i) {
    cc.on_ack(ack_at(t, 200 + static_cast<std::uint64_t>(i), msec(150), msec(50)));
    t += msec(20);
  }
  EXPECT_LT(cc.cwnd_bytes(), grown);
}

TEST(SproutEwma, PacesNearForecastWhenQueueAtTarget) {
  SproutEwma cc;
  for (int i = 0; i < 50; ++i)
    cc.on_ack(ack_at(msec(20) * i, static_cast<std::uint64_t>(i), msec(100), msec(50), mbps(10)));
  // Excess delay == target (50 ms): control ~ 1.0.
  EXPECT_NEAR(cc.pacing_rate(), mbps(10), mbps(1));
}

TEST(SproutEwma, BacksOffAboveTargetDelay) {
  SproutEwma cc;
  for (int i = 0; i < 50; ++i)
    cc.on_ack(ack_at(msec(20) * i, static_cast<std::uint64_t>(i), msec(250), msec(50), mbps(10)));
  EXPECT_LT(cc.pacing_rate(), mbps(8));
}

// Regression suite for the shared has_rtt_samples() guard: a first ACK whose
// rtt/min_rtt are still unset (zero) must not poison any delay-based
// controller with NaN/Inf rates or a consumed once-per-RTT adjustment slot.
template <typename Cca>
void expect_survives_zero_rtt_first_ack() {
  Cca cc;
  // Degenerate first ACK: no RTT samples yet (rtt = min_rtt = 0).
  cc.on_ack(ack_at(msec(1), 0, /*rtt=*/0, /*min_rtt=*/0));
  EXPECT_TRUE(std::isfinite(cc.pacing_rate())) << cc.name();
  EXPECT_GE(cc.pacing_rate(), 0.0) << cc.name();
  EXPECT_GT(cc.cwnd_bytes(), 0) << cc.name();
  // Real samples afterwards: the controller must still operate normally.
  for (int i = 1; i < 30; ++i)
    cc.on_ack(ack_at(msec(10) * i, static_cast<std::uint64_t>(i)));
  EXPECT_TRUE(std::isfinite(cc.pacing_rate())) << cc.name();
  EXPECT_GT(cc.cwnd_bytes(), 0) << cc.name();
}

TEST(RttGuard, VegasSurvivesZeroRttFirstAck) {
  expect_survives_zero_rtt_first_ack<Vegas>();
}
TEST(RttGuard, IllinoisSurvivesZeroRttFirstAck) {
  expect_survives_zero_rtt_first_ack<Illinois>();
}
TEST(RttGuard, CopaSurvivesZeroRttFirstAck) {
  expect_survives_zero_rtt_first_ack<Copa>();
}
TEST(RttGuard, SproutSurvivesZeroRttFirstAck) {
  expect_survives_zero_rtt_first_ack<SproutEwma>();
}

TEST(RttGuard, IllinoisGrowsBeforeFirstRttSample) {
  // Without delay samples Illinois must fall back to plain additive increase,
  // not stall (or adapt alpha from garbage trackers).
  Illinois cc;
  std::int64_t start = cc.cwnd_bytes();
  for (int i = 0; i < 20; ++i)
    cc.on_ack(ack_at(msec(i), static_cast<std::uint64_t>(i), 0, 0));
  EXPECT_GT(cc.cwnd_bytes(), start);
}

// End-to-end sanity: every classic CCA must achieve reasonable utilization
// without pathological delay or loss on a friendly link.
class ClassicE2E : public ::testing::TestWithParam<std::string> {};

TEST_P(ClassicE2E, FillsFriendlyLink) {
  LinkConfig cfg;
  cfg.capacity = std::make_shared<ConstantTrace>(mbps(24));
  cfg.buffer_bytes = 150 * 1000;
  cfg.propagation_delay = msec(15);
  Network net(std::move(cfg));

  std::string name = GetParam();
  std::unique_ptr<CongestionControl> cca;
  if (name == "newreno") cca = std::make_unique<NewReno>();
  else if (name == "cubic") cca = std::make_unique<Cubic>();
  else if (name == "bbr") cca = std::make_unique<Bbr>();
  else if (name == "vegas") cca = std::make_unique<Vegas>();
  else if (name == "westwood") cca = std::make_unique<Westwood>();
  else if (name == "illinois") cca = std::make_unique<Illinois>();
  else if (name == "copa") cca = std::make_unique<Copa>();
  else cca = std::make_unique<SproutEwma>();

  net.add_flow(std::move(cca));
  net.run_until(sec(20));
  EXPECT_GT(net.link_utilization(sec(5), sec(20)), 0.7) << name;
  EXPECT_LT(net.flow(0).mean_rtt_in(sec(5), sec(20)), 200.0) << name;
  EXPECT_LT(net.flow(0).loss_rate_in(0, sec(20)), 0.10) << name;
}

INSTANTIATE_TEST_SUITE_P(AllClassics, ClassicE2E,
                         ::testing::Values("newreno", "cubic", "bbr", "vegas",
                                           "westwood", "illinois", "copa",
                                           "sprout"));

}  // namespace
}  // namespace libra
