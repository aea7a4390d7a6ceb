#include "tokenring/analysis/latency.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/sim/config.hpp"
#include "reference_search.hpp"

namespace tokenring::analysis {
namespace {

TtpParams params(int stations) {
  TtpParams p;
  p.ring = net::fddi_ring(stations);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return p;
}

msg::SyncStream stream(Seconds period, Bits payload, int station) {
  return msg::SyncStream{period, payload, station};
}

TEST(TtpLatency, VisitsAndBoundByHand) {
  // P = 100 ms, TTRT = 10 ms -> q = 10, h = C/9 + ovhd. A message needing
  // exactly its allocation drains in 9 visits -> bound = 10 * TTRT = P.
  const auto p = params(2);
  const BitsPerSecond bw = mbps(100);
  const auto s = stream(milliseconds(100), 90'000.0, 0);
  const auto b = ttp_response_bound(s, p, bw, milliseconds(10));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->visits, 9);
  EXPECT_NEAR(b->response_bound, milliseconds(100), 1e-12);
  EXPECT_NEAR(b->slack, 0.0, 1e-12);
}

TEST(TtpLatency, LocalAllocationAlwaysUsesQMinusOneVisits) {
  // The local scheme allocates the minimum bandwidth, so even a tiny
  // message trickles out over q-1 = 9 visits; the bound is q * TTRT.
  const auto p = params(2);
  const BitsPerSecond bw = mbps(100);
  const auto s = stream(milliseconds(100), 100.0, 0);
  const auto b = ttp_response_bound(s, p, bw, milliseconds(10));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->visits, 9);
  EXPECT_NEAR(b->response_bound, milliseconds(100), 1e-12);
}

TEST(TtpLatency, GenerousAllocationCutsVisits) {
  // Latency-oriented provisioning: with h large enough to drain the whole
  // message in one visit the bound shrinks to 2*TTRT (one Johnson
  // inter-visit gap).
  const auto p = params(2);
  const BitsPerSecond bw = mbps(100);
  const auto s = stream(milliseconds(100), 100.0, 0);
  const Seconds h =
      s.payload_time(bw) + p.frame.overhead_time(bw) + microseconds(1);
  const auto b = ttp_response_bound_with_h(s, h, p, bw, milliseconds(10));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->visits, 1);
  EXPECT_NEAR(b->response_bound, milliseconds(20), 1e-12);
  // Useless allocation: h below the frame overhead carries nothing.
  EXPECT_FALSE(ttp_response_bound_with_h(s, p.frame.overhead_time(bw) / 2.0,
                                         p, bw, milliseconds(10))
                   .has_value());
}

TEST(TtpLatency, ZeroPayloadZeroVisits) {
  const auto p = params(2);
  const auto b = ttp_response_bound(stream(milliseconds(100), 0.0, 0), p,
                                    mbps(100), milliseconds(10));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->visits, 0);
}

TEST(TtpLatency, InfeasibleTtrtGivesNoBound) {
  const auto p = params(2);
  EXPECT_FALSE(ttp_response_bound(stream(milliseconds(100), 1'000.0, 0), p,
                                  mbps(100), milliseconds(60))
                   .has_value());
}

TEST(TtpLatency, ReportCoversEveryStream) {
  const auto p = params(4);
  const BitsPerSecond bw = mbps(100);
  msg::MessageSet set;
  set.add(stream(milliseconds(20), 10'000.0, 0));
  set.add(stream(milliseconds(50), 40'000.0, 1));
  set.add(stream(milliseconds(90), 80'000.0, 3));
  const auto report = ttp_latency_report(set, p, bw);
  ASSERT_EQ(report.size(), 3u);
  for (const auto& b : report) {
    EXPECT_TRUE(std::isfinite(b.response_bound));
    EXPECT_GT(b.visits, 0);
    // Guaranteed streams have the bound inside the deadline.
    EXPECT_GE(b.slack, 0.0);
  }
}

TEST(TtpLatency, BoundWithinDeadlineIffLocalSchemeGuarantees) {
  // The local allocation is built so that q_i - 1 visits always fit in the
  // period; the (k+1)*TTRT bound with k <= q_i - 1 must then sit within the
  // deadline.
  Rng rng(3);
  msg::GeneratorConfig g;
  g.num_streams = 10;
  msg::MessageSetGenerator gen(g);
  const auto p = params(10);
  const BitsPerSecond bw = mbps(100);
  for (int trial = 0; trial < 10; ++trial) {
    const auto set = gen.generate(rng).scaled(rng.uniform(1.0, 100.0));
    for (const auto& b : ttp_latency_report(set, p, bw)) {
      if (std::isfinite(b.response_bound)) {
        EXPECT_LE(b.response_bound, b.stream.period + 1e-9)
            << "trial " << trial;
      }
    }
  }
}

TEST(TtpLatency, SimulatedResponsesNeverExceedBound) {
  // Hard-bound property: simulate feasible sets under adversarial phasing
  // and saturating async; every observed response <= its stream's bound.
  Rng rng(17);
  msg::GeneratorConfig g;
  g.num_streams = 8;
  g.mean_period = milliseconds(60);
  msg::MessageSetGenerator gen(g);
  const auto p = params(8);
  const BitsPerSecond bw = mbps(100);

  int validated = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const auto base = gen.generate(rng);
    const auto predicate = [&](const msg::MessageSet& m) {
      return ttp_feasible(m, p, bw);
    };
    const auto sat = breakdown::find_saturation_scaled(
        base, reference::scaled_copy_kernel(base, predicate), bw);
    if (!sat.found) continue;
    const auto set = base.scaled(sat.critical_scale * 0.95);
    const Seconds ttrt = select_ttrt(set, p.ring, bw);

    sim::SimConfig cfg;
    cfg.protocol = sim::Protocol::kTtp;
    cfg.ttp = p;
    cfg.bandwidth = bw;
    cfg.ttrt = ttrt;
    cfg.horizon = 4.0 * set.max_period();
    cfg.worst_case_phasing = true;
    cfg.async_model = sim::AsyncModel::kSaturating;
    for (const auto& s : set.streams()) {
      cfg.sync_bandwidth_per_stream.push_back(
          ttp_local_bandwidth(s, p, bw, ttrt).value());
    }
    const auto metrics = sim::run_simulation(set, cfg);

    for (const auto& s : set.streams()) {
      const auto bound = ttp_response_bound(s, p, bw, ttrt);
      ASSERT_TRUE(bound.has_value());
      const auto it = metrics.per_station.find(s.station);
      if (it != metrics.per_station.end() && it->second.completed > 0) {
        EXPECT_LE(it->second.response_time.max(),
                  bound->response_bound + 1e-9)
            << "station " << s.station << " trial " << trial;
        ++validated;
      }
    }
  }
  EXPECT_GT(validated, 0);
}

}  // namespace
}  // namespace tokenring::analysis
