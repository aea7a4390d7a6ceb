// Unit tests of the fault framework (plans, recovery models, fault-aware
// margins) plus the margin-vs-simulation bracketing integration test: the
// analytic resilience margin must be conservative against the simulators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/fault/margins.hpp"
#include "tokenring/fault/plan.hpp"
#include "tokenring/fault/recovery.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/workload.hpp"

namespace tokenring::fault {
namespace {

analysis::PdpParams pdp_params() {
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(4);
  p.frame = net::paper_frame_format();
  p.variant = analysis::PdpVariant::kModified8025;
  return p;
}

analysis::TtpParams ttp_params() {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(4);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return p;
}

msg::MessageSet two_stream_set(Bits payload0, Bits payload2) {
  msg::MessageSet set;
  set.add({.period = milliseconds(20), .payload_bits = payload0, .station = 0});
  set.add({.period = milliseconds(40), .payload_bits = payload2, .station = 2});
  return set;
}

// ---- FaultPlan --------------------------------------------------------------

TEST(FaultPlan, AddersRecordAndSortedOrders) {
  FaultPlan plan;
  plan.add_token_loss(milliseconds(5));
  plan.add_frame_corruption(milliseconds(1));
  plan.add_duplicate_token(milliseconds(3));
  plan.add_noise_burst(milliseconds(4), milliseconds(2));
  ASSERT_EQ(plan.size(), 4u);

  const auto sorted = plan.sorted_events();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].kind, FaultKind::kFrameCorruption);
  EXPECT_EQ(sorted[1].kind, FaultKind::kDuplicateToken);
  EXPECT_EQ(sorted[2].kind, FaultKind::kNoiseBurst);
  EXPECT_DOUBLE_EQ(sorted[2].duration, milliseconds(2));
  EXPECT_EQ(sorted[3].kind, FaultKind::kTokenLoss);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].time, sorted[i].time);
  }
}

TEST(FaultPlan, CrashPairsWithRejoin) {
  FaultPlan plan;
  plan.add_station_crash(milliseconds(10), 2, milliseconds(20));
  ASSERT_EQ(plan.size(), 2u);
  const auto sorted = plan.sorted_events();
  EXPECT_EQ(sorted[0].kind, FaultKind::kStationCrash);
  EXPECT_EQ(sorted[0].station, 2);
  EXPECT_EQ(sorted[1].kind, FaultKind::kStationRejoin);
  EXPECT_EQ(sorted[1].station, 2);
  EXPECT_DOUBLE_EQ(sorted[1].time, milliseconds(30));

  FaultPlan permanent;
  permanent.add_station_crash(milliseconds(5), 1);  // no downtime: no rejoin
  EXPECT_EQ(permanent.size(), 1u);
}

TEST(FaultPlan, ValidateRejectsBadEvents) {
  FaultPlan negative_time;
  negative_time.add(FaultEvent{-1.0, FaultKind::kTokenLoss});
  EXPECT_THROW(negative_time.validate(4), PreconditionError);

  FaultPlan negative_duration;
  negative_duration.add(
      FaultEvent{milliseconds(1), FaultKind::kNoiseBurst, -1, -0.5});
  EXPECT_THROW(negative_duration.validate(4), PreconditionError);

  FaultPlan bad_station;
  bad_station.add_station_crash(milliseconds(1), 9);
  EXPECT_THROW(bad_station.validate(4), PreconditionError);

  FaultPlan good;
  good.add_token_loss(milliseconds(1));
  good.add_station_crash(milliseconds(2), 3, milliseconds(5));
  EXPECT_NO_THROW(good.validate(4));
}

TEST(FaultPlan, RandomIsDeterministicWithPerKindLanes) {
  const Seconds horizon = 1.0;
  FaultRates loss_only;
  loss_only.token_loss = 40.0;

  FaultRates both = loss_only;
  both.frame_corruption = 60.0;

  const auto a = FaultPlan::random(loss_only, horizon, 7, 8);
  const auto b = FaultPlan::random(both, horizon, 7, 8);
  ASSERT_FALSE(a.empty());

  // Same seed regenerates the identical plan.
  const auto b2 = FaultPlan::random(both, horizon, 7, 8);
  ASSERT_EQ(b2.size(), b.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b2.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(b2.events()[i].time, b.events()[i].time);  // bit-identical
  }

  // Per-kind seed lanes: enabling corruption must not move the token-loss
  // schedule.
  std::vector<Seconds> losses_a;
  std::vector<Seconds> losses_b;
  std::size_t corruptions_b = 0;
  for (const auto& e : a.events()) {
    ASSERT_EQ(e.kind, FaultKind::kTokenLoss);
    losses_a.push_back(e.time);
  }
  for (const auto& e : b.events()) {
    if (e.kind == FaultKind::kTokenLoss) losses_b.push_back(e.time);
    if (e.kind == FaultKind::kFrameCorruption) ++corruptions_b;
  }
  EXPECT_GT(corruptions_b, 0u);
  EXPECT_EQ(losses_a, losses_b);

  // Everything lands in [0, 0.9*horizon] and validates.
  for (const auto& e : b.events()) {
    EXPECT_GE(e.time, 0.0);
    EXPECT_LE(e.time, 0.9 * horizon);
  }
  EXPECT_NO_THROW(b.validate(8));
}

// ---- recovery models --------------------------------------------------------

TEST(Recovery, PdpOutageOrderingAndDispatch) {
  const auto p = pdp_params();
  const BitsPerSecond bw = mbps(16);

  // Corruption wastes one slot; token loss adds the purge walk on top;
  // the beacon process (crash) is the costliest.
  EXPECT_LT(pdp_corruption_outage(p, bw), pdp_monitor_outage(p, bw));
  EXPECT_LT(pdp_monitor_outage(p, bw), pdp_beacon_outage(p, bw));
  EXPECT_GT(pdp_duplicate_outage(p, bw), 0.0);

  EXPECT_DOUBLE_EQ(pdp_fault_outage(FaultKind::kTokenLoss, p, bw),
                   pdp_monitor_outage(p, bw));
  EXPECT_DOUBLE_EQ(pdp_fault_outage(FaultKind::kFrameCorruption, p, bw),
                   pdp_corruption_outage(p, bw));
  EXPECT_DOUBLE_EQ(pdp_fault_outage(FaultKind::kStationCrash, p, bw),
                   pdp_fault_outage(FaultKind::kStationRejoin, p, bw));
  EXPECT_DOUBLE_EQ(
      pdp_fault_outage(FaultKind::kNoiseBurst, p, bw, milliseconds(3)),
      milliseconds(3) + pdp_monitor_outage(p, bw));
}

TEST(Recovery, TtpOutageOrderingAndDispatch) {
  const auto p = ttp_params();
  const BitsPerSecond bw = mbps(100);
  const Seconds ttrt = milliseconds(2);

  // Token loss pays the TRT double-expiry detection (2*TTRT) on top of the
  // claim; corruption is just one frame.
  EXPECT_NEAR(ttp_token_loss_outage(p, bw, ttrt),
              2.0 * ttrt + ttp_claim_outage(p, bw), 1e-12);
  EXPECT_LT(ttp_corruption_outage(p, bw), ttp_claim_outage(p, bw) + ttrt);
  EXPECT_LT(ttp_claim_outage(p, bw), ttp_duplicate_outage(p, bw));
  EXPECT_LT(ttp_duplicate_outage(p, bw), ttp_token_loss_outage(p, bw, ttrt));

  EXPECT_DOUBLE_EQ(ttp_fault_outage(FaultKind::kTokenLoss, p, bw, ttrt),
                   ttp_token_loss_outage(p, bw, ttrt));
  EXPECT_DOUBLE_EQ(ttp_fault_outage(FaultKind::kStationCrash, p, bw, ttrt),
                   ttp_reconfiguration_outage(p, bw));
  EXPECT_DOUBLE_EQ(
      ttp_fault_outage(FaultKind::kNoiseBurst, p, bw, ttrt, milliseconds(3)),
      milliseconds(3) + ttp_token_loss_outage(p, bw, ttrt));
}

// ---- margins ----------------------------------------------------------------

TEST(Margins, ZeroFaultsMatchesBaseCriteria) {
  const auto set = two_stream_set(40'000.0, 40'000.0);
  const auto pdp = pdp_params();
  const auto ttp = ttp_params();
  EXPECT_EQ(pdp_schedulable_with_faults(set, pdp, mbps(16), FaultBudget{}, 0),
            analysis::pdp_feasible(set, pdp, mbps(16)));
  const Seconds ttrt = milliseconds(2.5);
  EXPECT_EQ(ttp_schedulable_with_faults(set, ttp, mbps(100), ttrt,
                                        FaultBudget{}, 0),
            analysis::ttp_feasible_at(set, ttp, mbps(100), ttrt));
}

TEST(Margins, BinarySearchBracketsTheCriterion) {
  const auto set = two_stream_set(40'000.0, 40'000.0);

  const auto pdp = pdp_fault_margin(set, pdp_params(), mbps(16));
  ASSERT_TRUE(pdp.fault_free_schedulable);
  ASSERT_GE(pdp.margin, 1);
  EXPECT_TRUE(pdp_schedulable_with_faults(set, pdp_params(), mbps(16),
                                          FaultBudget{}, pdp.margin));
  EXPECT_FALSE(pdp_schedulable_with_faults(set, pdp_params(), mbps(16),
                                           FaultBudget{}, pdp.margin + 1));

  const Seconds ttrt = milliseconds(2.5);
  const auto ttp = ttp_fault_margin(set, ttp_params(), mbps(100), ttrt);
  ASSERT_TRUE(ttp.fault_free_schedulable);
  ASSERT_GE(ttp.margin, 1);
  EXPECT_TRUE(ttp_schedulable_with_faults(set, ttp_params(), mbps(100), ttrt,
                                          FaultBudget{}, ttp.margin));
  EXPECT_FALSE(ttp_schedulable_with_faults(set, ttp_params(), mbps(100), ttrt,
                                           FaultBudget{}, ttp.margin + 1));
}

TEST(Margins, InfeasibleSetReportsNegativeMargin) {
  // 40x overload: infeasible even fault-free.
  const auto heavy = two_stream_set(2'000'000.0, 2'000'000.0);
  const auto pdp = pdp_fault_margin(heavy, pdp_params(), mbps(16));
  EXPECT_FALSE(pdp.fault_free_schedulable);
  EXPECT_EQ(pdp.margin, -1);
  const auto ttp = ttp_fault_margin(heavy, ttp_params(), mbps(100));
  EXPECT_FALSE(ttp.fault_free_schedulable);
  EXPECT_EQ(ttp.margin, -1);
}

TEST(Margins, CostlierFaultKindsShrinkTheMargin) {
  const auto set = two_stream_set(40'000.0, 40'000.0);
  const auto corruption =
      pdp_fault_margin(set, pdp_params(), mbps(16),
                       FaultBudget{FaultKind::kFrameCorruption, 0.0});
  const auto loss = pdp_fault_margin(set, pdp_params(), mbps(16));
  const auto noise =
      pdp_fault_margin(set, pdp_params(), mbps(16),
                       FaultBudget{FaultKind::kNoiseBurst, milliseconds(5)});
  EXPECT_GE(corruption.margin, loss.margin);
  EXPECT_GT(loss.margin, noise.margin);
  EXPECT_GE(noise.margin, 0);

  const Seconds ttrt = milliseconds(2.5);
  const auto ttp_corruption =
      ttp_fault_margin(set, ttp_params(), mbps(100), ttrt,
                       FaultBudget{FaultKind::kFrameCorruption, 0.0});
  const auto ttp_loss = ttp_fault_margin(set, ttp_params(), mbps(100), ttrt);
  EXPECT_GT(ttp_corruption.margin, ttp_loss.margin);
}

TEST(Margins, SaturateInsteadOfWrappingWhenOutagesAreTiny) {
  // 3,000 s periods at 10 Gbit/s: more than INT_MAX sub-microsecond outages
  // fit in one period. The search bracket clamps, so a shorter outage
  // saturates at kMaxFaultMargin instead of wrapping to a margin of 0.
  msg::MessageSet set;
  set.add({.period = 3000.0, .payload_bits = 10'000.0, .station = 0});
  set.add({.period = 3000.0, .payload_bits = 20'000.0, .station = 1});
  analysis::PdpParams p = pdp_params();
  p.ring = net::ieee8025_ring(2);
  const BitsPerSecond bw = mbps(10'000);

  std::vector<FaultMarginReport> reports;
  for (FaultKind kind : kAllFaultKinds) {
    reports.push_back(
        pdp_fault_margin(set, p, bw, FaultBudget{kind, 1e-3}));
  }
  for (Seconds noise = 1e-9; noise < 1.0; noise *= 10.0) {
    reports.push_back(pdp_fault_margin(
        set, p, bw, FaultBudget{FaultKind::kNoiseBurst, noise}));
  }
  std::sort(reports.begin(), reports.end(),
            [](const FaultMarginReport& a, const FaultMarginReport& b) {
              return a.recovery_per_fault < b.recovery_per_fault;
            });
  EXPECT_EQ(reports.front().margin, kMaxFaultMargin);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    ASSERT_TRUE(reports[i].fault_free_schedulable);
    EXPECT_GT(reports[i].margin, 0) << "outage "
                                    << reports[i].recovery_per_fault;
    if (i > 0) {
      EXPECT_LE(reports[i].margin, reports[i - 1].margin)
          << "outage " << reports[i].recovery_per_fault << " s";
    }
  }

  const auto corruption =
      pdp_fault_margin(set, p, bw,
                       FaultBudget{FaultKind::kFrameCorruption, 0.0});
  EXPECT_EQ(corruption.margin, kMaxFaultMargin);
  const auto loss = pdp_fault_margin(set, p, bw);
  EXPECT_GT(loss.margin, 0);
  EXPECT_LT(loss.margin, kMaxFaultMargin);
}

// ---- margin vs simulation (the conservativeness bracket) --------------------
//
// Both tests inject k token losses back to back (each spaced one recovery
// apart, so every loss is charged its full outage and the ring is
// continuously dead for ~k * r) starting just after the t=80ms release
// that both streams share.

TEST(FaultMarginIntegration, PdpMarginIsConservativeInSimulation) {
  const BitsPerSecond bw = mbps(16);
  const auto p = pdp_params();
  const auto set = two_stream_set(40'000.0, 40'000.0);

  const auto report = pdp_fault_margin(set, p, bw);
  ASSERT_TRUE(report.fault_free_schedulable);
  ASSERT_GE(report.margin, 1);
  const Seconds r = report.recovery_per_fault;

  const auto run_with_burst = [&](int k) {
    auto cfg = sim::make_sim_config(set, p, bw, 6.0);
    const Seconds t0 = milliseconds(80) + 0.1 * r;
    for (int i = 0; i < k; ++i) {
      cfg.faults.add_token_loss(t0 + static_cast<double>(i) * r);
    }
    return sim::run_simulation(set, cfg);
  };

  // At the predicted margin the burst is absorbed: no deadline misses.
  const auto at_margin = run_with_burst(report.margin);
  EXPECT_EQ(at_margin.deadline_misses, 0u) << at_margin.summary();
  EXPECT_EQ(at_margin.faults_injected(),
            static_cast<std::size_t>(report.margin));

  // Beyond it the guarantee breaks: some k > margin misses. A burst longer
  // than the tightest period blacks out a whole window, so the search is
  // bounded by that certain-miss point.
  const int dark = report.margin +
                   static_cast<int>(std::ceil(milliseconds(20) / r)) + 2;
  int first_missing = -1;
  for (int k = report.margin + 1; k <= dark;
       k = (k < report.margin + 4) ? k + 1 : k + (k - report.margin)) {
    if (run_with_burst(k).deadline_misses > 0) {
      first_missing = k;
      break;
    }
  }
  if (first_missing < 0 && run_with_burst(dark).deadline_misses > 0) {
    first_missing = dark;
  }
  EXPECT_GT(first_missing, report.margin)
      << "no misses found up to a full blackout of the 20ms window";
}

TEST(FaultMarginIntegration, TtpMarginIsConservativeInSimulation) {
  const BitsPerSecond bw = mbps(100);
  const auto p = ttp_params();
  const auto set = two_stream_set(100'000.0, 200'000.0);
  const Seconds ttrt = milliseconds(2.5);

  const auto report = ttp_fault_margin(set, p, bw, ttrt);
  ASSERT_TRUE(report.fault_free_schedulable);
  ASSERT_GE(report.margin, 1);
  const Seconds r = report.recovery_per_fault;

  // The fault-aware criterion sizes allocations for the debited visit count
  // q_i(k); configure the stations with exactly those h_i.
  const Seconds charged = r + ttrt;  // per-fault debit used by the criterion
  const auto h_at = [&](const msg::SyncStream& s, int k) {
    const Seconds window = s.deadline() - static_cast<double>(k) * charged;
    const auto q = static_cast<std::int64_t>(std::floor(window / ttrt));
    TR_EXPECTS(q >= 2);
    return s.payload_time(bw) / static_cast<double>(q - 1) +
           p.frame.overhead_time(bw);
  };

  const auto run_with_burst = [&](int k) {
    sim::SimConfig cfg;
    cfg.protocol = sim::Protocol::kTtp;
    cfg.ttp = p;
    cfg.bandwidth = bw;
    cfg.ttrt = ttrt;
    for (const auto& s : set.streams()) {
      cfg.sync_bandwidth_per_stream.push_back(h_at(s, report.margin));
    }
    cfg.horizon = 6.0 * set.max_period();
    const Seconds t0 = milliseconds(80) + 0.2 * ttrt;
    for (int i = 0; i < k; ++i) {
      cfg.faults.add_token_loss(t0 + static_cast<double>(i) * r);
    }
    return sim::run_simulation(set, cfg);
  };

  const auto at_margin = run_with_burst(report.margin);
  EXPECT_EQ(at_margin.deadline_misses, 0u) << at_margin.summary();
  EXPECT_EQ(at_margin.token_losses, static_cast<std::size_t>(report.margin));

  const int dark = report.margin +
                   static_cast<int>(std::ceil(2.0 * milliseconds(20) / r)) + 2;
  int first_missing = -1;
  for (int k = report.margin + 1; k <= dark;
       k = (k < report.margin + 4) ? k + 1 : k + (k - report.margin)) {
    if (run_with_burst(k).deadline_misses > 0) {
      first_missing = k;
      break;
    }
  }
  if (first_missing < 0 && run_with_burst(dark).deadline_misses > 0) {
    first_missing = dark;
  }
  EXPECT_GT(first_missing, report.margin)
      << "no misses found up to a double blackout of the 20ms window";
}

}  // namespace
}  // namespace tokenring::fault
