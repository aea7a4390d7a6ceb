#include "tokenring/analysis/ttp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/net/standards.hpp"
#include "reference_search.hpp"

namespace tokenring::analysis {
namespace {

TtpParams params(int stations = 100) {
  TtpParams p;
  p.ring = net::fddi_ring(stations);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return p;
}

msg::SyncStream stream(Seconds period, Bits payload, int station = 0) {
  return msg::SyncStream{period, payload, station};
}

// ---- TTRT selection -----------------------------------------------------------

TEST(Ttrt, BidIsSqrtThetaPeriod) {
  // When sqrt(Theta*P) < P/2 the bid is the geometric mean.
  const Seconds theta = microseconds(100);
  const Seconds period = milliseconds(100);
  EXPECT_NEAR(ttrt_bid(period, theta), std::sqrt(theta * period), 1e-15);
}

TEST(Ttrt, BidClampsToHalfPeriod) {
  // sqrt(Theta*P) > P/2 when Theta > P/4.
  const Seconds theta = milliseconds(40);
  const Seconds period = milliseconds(100);
  EXPECT_DOUBLE_EQ(ttrt_bid(period, theta), milliseconds(50));
}

TEST(Ttrt, SelectionTakesMinimumBid) {
  msg::MessageSet set;
  set.add(stream(milliseconds(20), 1.0, 0));
  set.add(stream(milliseconds(100), 1.0, 1));
  const auto ring = net::fddi_ring(2);
  const BitsPerSecond bw = mbps(100);
  const Seconds theta = ring.theta(bw);
  EXPECT_NEAR(select_ttrt(set, ring, bw),
              std::min(ttrt_bid(milliseconds(20), theta),
                       ttrt_bid(milliseconds(100), theta)),
              1e-15);
  // Minimum bid belongs to the shortest period.
  EXPECT_NEAR(select_ttrt(set, ring, bw), ttrt_bid(milliseconds(20), theta),
              1e-15);
}

TEST(Ttrt, MaxValidTtrtIsHalfMinPeriod) {
  msg::MessageSet set;
  set.add(stream(milliseconds(30), 1.0, 0));
  set.add(stream(milliseconds(20), 1.0, 1));
  EXPECT_DOUBLE_EQ(max_valid_ttrt(set), milliseconds(10));
}

TEST(Ttrt, SelectedTtrtAlwaysValid) {
  Rng rng(3);
  msg::GeneratorConfig g;
  g.num_streams = 50;
  msg::MessageSetGenerator gen(g);
  const auto ring = net::fddi_ring(50);
  for (double bw_mbps : {1.0, 10.0, 100.0, 1000.0}) {
    const auto set = gen.generate(rng);
    const Seconds ttrt = select_ttrt(set, ring, mbps(bw_mbps));
    EXPECT_LE(ttrt, max_valid_ttrt(set) + 1e-15);
    EXPECT_GT(ttrt, 0.0);
  }
}

TEST(Ttrt, Preconditions) {
  EXPECT_THROW(ttrt_bid(0.0, 1e-6), PreconditionError);
  EXPECT_THROW(ttrt_bid(1.0, 0.0), PreconditionError);
  msg::MessageSet empty;
  EXPECT_THROW(select_ttrt(empty, net::fddi_ring(2), mbps(10)),
               PreconditionError);
  EXPECT_THROW(max_valid_ttrt(empty), PreconditionError);
}

// ---- Lambda and bandwidth allocation -------------------------------------------

TEST(TtpLambda, ThetaPlusAsyncFrame) {
  const auto p = params();
  const BitsPerSecond bw = mbps(100);
  EXPECT_NEAR(ttp_lambda(p, bw),
              p.ring.theta(bw) + p.async_frame.frame_time(bw), 1e-18);
}

TEST(TtpLambda, DecreasesWithBandwidth) {
  const auto p = params();
  EXPECT_GT(ttp_lambda(p, mbps(1)), ttp_lambda(p, mbps(10)));
  EXPECT_GT(ttp_lambda(p, mbps(10)), ttp_lambda(p, mbps(100)));
}

TEST(TtpLocalBandwidth, FormulaByHand) {
  // P = 100 ms, TTRT = 10 ms -> q = 10; h = C/9 + F_ovhd.
  const auto p = params();
  const BitsPerSecond bw = mbps(100);
  const auto s = stream(milliseconds(100), 90'000.0);
  const Seconds c = transmission_time(90'000.0, bw);  // 0.9 ms
  const auto h = ttp_local_bandwidth(s, p, bw, milliseconds(10));
  ASSERT_TRUE(h.has_value());
  EXPECT_NEAR(*h, c / 9.0 + p.frame.overhead_time(bw), 1e-15);
}

TEST(TtpLocalBandwidth, ExactPeriodMultipleUsesFloor) {
  // P = 100 ms, TTRT = 50 ms -> q = 2, h = C/1 + ovhd.
  const auto p = params();
  const BitsPerSecond bw = mbps(100);
  const auto s = stream(milliseconds(100), 1'000.0);
  const auto h = ttp_local_bandwidth(s, p, bw, milliseconds(50));
  ASSERT_TRUE(h.has_value());
  EXPECT_NEAR(*h, s.payload_time(bw) + p.frame.overhead_time(bw), 1e-15);
}

TEST(TtpLocalBandwidth, QBelowTwoIsInfeasible) {
  const auto p = params();
  // P = 100 ms, TTRT = 60 ms -> q = 1: no guarantee possible.
  const auto s = stream(milliseconds(100), 1'000.0);
  EXPECT_FALSE(ttp_local_bandwidth(s, p, mbps(100), milliseconds(60)));
}

// ---- Theorem 5.1 ----------------------------------------------------------------

TEST(TtpSchedulability, HandComputedBoundary) {
  // 2 stations, equal periods 100 ms, TTRT 10 ms, 100 Mbps.
  // q = 10; criterion: sum C_i/9 + 2*F_ovhd <= TTRT - Lambda.
  const auto p = params(2);
  const BitsPerSecond bw = mbps(100);
  const Seconds ttrt = milliseconds(10);
  const Seconds lambda = ttp_lambda(p, bw);
  const Seconds f_ovhd = p.frame.overhead_time(bw);
  const Seconds budget = ttrt - lambda - 2.0 * f_ovhd;  // total sum C_i/9

  // Build a set exactly at the boundary.
  const Seconds per_stream_c = budget * 9.0 / 2.0;
  msg::MessageSet set;
  set.add(stream(milliseconds(100), per_stream_c * bw, 0));
  set.add(stream(milliseconds(100), per_stream_c * bw, 1));

  EXPECT_TRUE(ttp_feasible_at(set, p, bw, ttrt));
  EXPECT_FALSE(ttp_feasible_at(set.scaled(1.0 + 1e-9), p, bw, ttrt));
}

TEST(TtpSchedulability, VerdictFieldsConsistent) {
  const auto p = params(3);
  const BitsPerSecond bw = mbps(100);
  msg::MessageSet set;
  set.add(stream(milliseconds(40), 10'000.0, 0));
  set.add(stream(milliseconds(60), 20'000.0, 1));
  set.add(stream(milliseconds(90), 30'000.0, 2));
  const auto v = ttp_schedulable(set, p, bw);
  ASSERT_EQ(v.reports.size(), 3u);
  Seconds sum_h = 0.0;
  for (const auto& r : v.reports) {
    EXPECT_TRUE(r.deadline_feasible);
    EXPECT_EQ(r.q, static_cast<std::int64_t>(std::floor(r.stream.period / v.ttrt)));
    EXPECT_GT(r.h, 0.0);
    sum_h += r.h;
  }
  EXPECT_NEAR(v.allocated, sum_h, 1e-15);
  EXPECT_NEAR(v.available, v.ttrt - v.lambda, 1e-15);
  EXPECT_EQ(v.schedulable, v.allocated <= v.available);
}

TEST(TtpSchedulability, FeasibleMatchesFullVerdict) {
  Rng rng(7);
  msg::GeneratorConfig g;
  g.num_streams = 30;
  msg::MessageSetGenerator gen(g);
  const auto p = params(30);
  for (int trial = 0; trial < 40; ++trial) {
    const auto set = gen.generate(rng).scaled(rng.uniform(1.0, 500.0));
    const BitsPerSecond bw = mbps(rng.uniform(5.0, 500.0));
    EXPECT_EQ(ttp_feasible(set, p, bw), ttp_schedulable(set, p, bw).schedulable)
        << "trial " << trial;
  }
}

TEST(TtpSchedulability, MonotoneInScale) {
  Rng rng(9);
  msg::GeneratorConfig g;
  g.num_streams = 25;
  msg::MessageSetGenerator gen(g);
  const auto p = params(25);
  const BitsPerSecond bw = mbps(100);
  for (int trial = 0; trial < 20; ++trial) {
    const auto base = gen.generate(rng);
    bool prev = true;
    for (double scale : {1.0, 10.0, 100.0, 1'000.0, 10'000.0}) {
      const bool ok = ttp_feasible(base.scaled(scale), p, bw);
      if (!prev) {
        EXPECT_FALSE(ok);
      }
      prev = ok;
    }
  }
}

TEST(TtpSchedulability, TooShortPeriodForTtrtFails) {
  const auto p = params(2);
  msg::MessageSet set;
  set.add(stream(milliseconds(100), 1'000.0, 0));
  set.add(stream(milliseconds(100), 1'000.0, 1));
  // Explicit TTRT of 60 ms makes q = 1 -> infeasible regardless of load.
  const auto v = ttp_schedulable_at(set, p, mbps(100), milliseconds(60));
  EXPECT_FALSE(v.schedulable);
  EXPECT_FALSE(v.reports[0].deadline_feasible);
}

TEST(TtpSchedulability, ZeroPayloadStillPaysFrameOverhead) {
  // Theorem 5.1 keeps the n*F_ovhd term even for empty messages: each
  // station's allocation must fit one frame header per usable visit.
  const auto p = params(2);
  const BitsPerSecond bw = mbps(100);
  msg::MessageSet set;
  set.add(stream(milliseconds(100), 0.0, 0));
  set.add(stream(milliseconds(100), 0.0, 1));
  const auto v = ttp_schedulable(set, p, bw);
  EXPECT_NEAR(v.allocated, 2.0 * p.frame.overhead_time(bw), 1e-15);
}

TEST(TtpCriticalScale, MatchesBisectionOnRandomSets) {
  // The closed form and the generic monotone bisection must locate the
  // same boundary.
  Rng rng(12);
  msg::GeneratorConfig g;
  g.num_streams = 20;
  msg::MessageSetGenerator gen(g);
  const auto p = params(20);
  for (int trial = 0; trial < 15; ++trial) {
    const auto base = gen.generate(rng);
    const BitsPerSecond bw = mbps(rng.uniform(20.0, 500.0));
    const Seconds ttrt = select_ttrt(base, p.ring, bw);
    const double closed = ttp_critical_scale(base, p, bw, ttrt);
    const auto bisect = breakdown::find_saturation_scaled(
        base,
        reference::scaled_copy_kernel(
            base,
            [&](const msg::MessageSet& m) {
              return ttp_feasible_at(m, p, bw, ttrt);
            }),
        bw);
    ASSERT_TRUE(bisect.found) << "trial " << trial;
    EXPECT_NEAR(bisect.critical_scale, closed, closed * 1e-5)
        << "trial " << trial;
  }
}

TEST(TtpCriticalScale, BoundaryBehaviour) {
  const auto p = params(2);
  const BitsPerSecond bw = mbps(100);
  msg::MessageSet set;
  set.add(stream(milliseconds(100), 10'000.0, 0));
  set.add(stream(milliseconds(100), 10'000.0, 1));
  const Seconds ttrt = milliseconds(10);
  const double alpha = ttp_critical_scale(set, p, bw, ttrt);
  EXPECT_GT(alpha, 0.0);
  EXPECT_TRUE(ttp_feasible_at(set.scaled(alpha * 0.999999), p, bw, ttrt));
  EXPECT_FALSE(ttp_feasible_at(set.scaled(alpha * 1.000001), p, bw, ttrt));
}

TEST(TtpCriticalScale, DegenerateCases) {
  const auto p = params(2);
  const BitsPerSecond bw = mbps(100);
  msg::MessageSet set;
  set.add(stream(milliseconds(100), 10'000.0, 0));
  // q < 2 -> zero.
  EXPECT_DOUBLE_EQ(ttp_critical_scale(set, p, bw, milliseconds(60)), 0.0);
  // Zero payloads stay feasible forever -> infinity.
  msg::MessageSet zero;
  zero.add(stream(milliseconds(100), 0.0, 0));
  EXPECT_TRUE(std::isinf(ttp_critical_scale(zero, p, bw, milliseconds(10))));
  // At 1 Mbps with 100 stations the n*F_ovhd term alone kills it.
  const auto p100 = params(100);
  msg::MessageSet big;
  for (int i = 0; i < 100; ++i) {
    big.add(stream(milliseconds(100), 1'000.0, i));
  }
  EXPECT_DOUBLE_EQ(
      ttp_critical_scale(big, p100, mbps(1), milliseconds(9)), 0.0);
}

TEST(TtpWorstCase, ApproachesOneThird) {
  const auto p = params();
  // As bandwidth grows and TTRT >> Lambda, the bound approaches 1/3.
  const Seconds ttrt = milliseconds(4);
  const double bound = ttp_worst_case_utilization_bound(p, gbps(10), ttrt);
  EXPECT_GT(bound, 0.32);
  EXPECT_LE(bound, 1.0 / 3.0 + 1e-12);
}

TEST(TtpWorstCase, ZeroWhenOverheadSwallowsTtrt) {
  const auto p = params();
  // At 1 Mbps Lambda ~= 8.2 ms > TTRT = 1 ms.
  EXPECT_DOUBLE_EQ(ttp_worst_case_utilization_bound(p, mbps(1), milliseconds(1)),
                   0.0);
}

TEST(TtpSchedulability, Preconditions) {
  const auto p = params(2);
  msg::MessageSet set;
  set.add(stream(milliseconds(100), 1.0, 0));
  EXPECT_THROW(ttp_schedulable_at(set, p, 0.0, milliseconds(1)),
               PreconditionError);
  EXPECT_THROW(ttp_schedulable_at(set, p, mbps(10), 0.0), PreconditionError);
  msg::MessageSet empty;
  EXPECT_THROW(ttp_schedulable(empty, p, mbps(10)), PreconditionError);
}

}  // namespace
}  // namespace tokenring::analysis
