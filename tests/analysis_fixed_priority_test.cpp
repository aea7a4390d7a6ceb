#include "tokenring/analysis/fixed_priority.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/obs/registry.hpp"
#include "lsd_oracle.hpp"

namespace tokenring::analysis {
namespace {

using reference::hyperbolic_product;
using reference::liu_layland_bound;
using reference::lsd_point_test;
using reference::lsd_point_test_all;

// ---- hand-checked classics -------------------------------------------------

TEST(FixedPriority, LiuLaylandClassicSchedulable) {
  // Liu & Layland 1973 example: U = 0.25 + 0.30 = 0.55 < bound.
  const std::vector<FpTask> tasks = {{4.0, 1.0}, {5.0, 1.5}};
  EXPECT_TRUE(response_time_analysis(tasks, 0.0).schedulable);
  EXPECT_TRUE(lsd_point_test_all(tasks, 0.0).schedulable);
}

TEST(FixedPriority, FullUtilizationHarmonicIsSchedulable) {
  // Harmonic periods schedule up to U = 1.
  const std::vector<FpTask> tasks = {{2.0, 1.0}, {4.0, 1.0}, {8.0, 2.0}};
  EXPECT_DOUBLE_EQ(tasks[0].cost / tasks[0].period + tasks[1].cost / tasks[1].period +
                       tasks[2].cost / tasks[2].period,
                   1.0);
  EXPECT_TRUE(response_time_analysis(tasks, 0.0).schedulable);
  EXPECT_TRUE(lsd_point_test_all(tasks, 0.0).schedulable);
}

TEST(FixedPriority, OverloadedSetFails) {
  const std::vector<FpTask> tasks = {{2.0, 1.5}, {3.0, 1.5}};  // U = 1.25
  const auto v = response_time_analysis(tasks, 0.0);
  EXPECT_FALSE(v.schedulable);
  ASSERT_TRUE(v.first_failure.has_value());
  EXPECT_EQ(*v.first_failure, 1u);
  EXPECT_FALSE(lsd_point_test_all(tasks, 0.0).schedulable);
}

TEST(FixedPriority, BoundaryCaseExactFit) {
  // t=4: 2*ceil(4/2) + 2 = 6 > 4; t=6: 2*3+2=8>6 ... classic infeasible;
  // but {3, 1.5},{4.5,1.5} fits exactly at t=4.5: 1.5*ceil(4.5/3)+1.5 = 4.5.
  const std::vector<FpTask> tasks = {{3.0, 1.5}, {4.5, 1.5}};
  EXPECT_TRUE(response_time_analysis(tasks, 0.0).schedulable);
  EXPECT_TRUE(lsd_point_test_all(tasks, 0.0).schedulable);
  // Any epsilon more on the low-priority task breaks it.
  const std::vector<FpTask> broken = {{3.0, 1.5}, {4.5, 1.5 + 1e-6}};
  EXPECT_FALSE(response_time_analysis(broken, 0.0).schedulable);
  EXPECT_FALSE(lsd_point_test_all(broken, 0.0).schedulable);
}

TEST(FixedPriority, ResponseTimesByHand) {
  // r1 = 1; r2 = 1.5 + ceil(r2/4)*1 -> r2 = 2.5.
  const std::vector<FpTask> tasks = {{4.0, 1.0}, {5.0, 1.5}};
  const auto v = response_time_analysis(tasks, 0.0);
  ASSERT_TRUE(v.tasks[0].response_time.has_value());
  ASSERT_TRUE(v.tasks[1].response_time.has_value());
  EXPECT_DOUBLE_EQ(*v.tasks[0].response_time, 1.0);
  EXPECT_DOUBLE_EQ(*v.tasks[1].response_time, 2.5);
}

TEST(FixedPriority, ResponseTimeWithInterferenceWindow) {
  // r = 2 + ceil(r/3)*1: r0=2 -> 2+ceil(2/3)=3 -> 2+ceil(3/3)=3. The second
  // release of task 1 lands exactly when task 2 finishes, so r = 3.
  const std::vector<FpTask> tasks = {{3.0, 1.0}, {10.0, 2.0}};
  const auto v = response_time_analysis(tasks, 0.0);
  ASSERT_TRUE(v.tasks[1].response_time.has_value());
  EXPECT_DOUBLE_EQ(*v.tasks[1].response_time, 3.0);

  // One epsilon more cost and the second release does interfere: r jumps
  // past 4 (2+eps + 2 interference).
  const std::vector<FpTask> heavier = {{3.0, 1.0}, {10.0, 2.0 + 1e-9}};
  const auto v2 = response_time_analysis(heavier, 0.0);
  ASSERT_TRUE(v2.tasks[1].response_time.has_value());
  EXPECT_GT(*v2.tasks[1].response_time, 4.0);
}

// ---- blocking term ----------------------------------------------------------

TEST(FixedPriority, BlockingShiftsVerdict) {
  const std::vector<FpTask> tasks = {{4.0, 1.0}, {5.0, 1.5}};
  // r2 = B + 1.5 + ceil(r2/4)*1. With B = 1.5 the fixpoint is exactly 4
  // (one interference hit); with B = 1.6 the window crosses t=4 and the
  // second release of task 1 pushes r past the deadline.
  EXPECT_TRUE(response_time_analysis(tasks, 1.5).schedulable);
  EXPECT_FALSE(response_time_analysis(tasks, 1.6).schedulable);
}

TEST(FixedPriority, BlockingAppliesToHighestPriorityTask) {
  const std::vector<FpTask> tasks = {{2.0, 1.0}};
  EXPECT_TRUE(response_time_analysis(tasks, 0.9).schedulable);
  EXPECT_FALSE(response_time_analysis(tasks, 1.1).schedulable);
}

TEST(FixedPriority, NegativeBlockingRejected) {
  const std::vector<FpTask> tasks = {{2.0, 1.0}};
  EXPECT_THROW(response_time_analysis(tasks, -0.1), PreconditionError);
  EXPECT_THROW(lsd_point_test_all(tasks, -0.1), PreconditionError);
}

// ---- input validation --------------------------------------------------------

TEST(FixedPriority, RejectsUnsortedTasks) {
  const std::vector<FpTask> tasks = {{5.0, 1.0}, {4.0, 1.0}};
  EXPECT_THROW(response_time_analysis(tasks, 0.0), PreconditionError);
  EXPECT_THROW(lsd_point_test_all(tasks, 0.0), PreconditionError);
}

TEST(FixedPriority, RejectsNonPositivePeriod) {
  const std::vector<FpTask> tasks = {{0.0, 1.0}};
  EXPECT_THROW(validate_sorted_tasks(tasks), PreconditionError);
}

TEST(FixedPriority, RejectsNegativeCost) {
  const std::vector<FpTask> tasks = {{1.0, -1.0}};
  EXPECT_THROW(validate_sorted_tasks(tasks), PreconditionError);
}

TEST(FixedPriority, EmptySetIsSchedulable) {
  const std::vector<FpTask> tasks;
  EXPECT_TRUE(response_time_analysis(tasks, 0.0).schedulable);
  EXPECT_TRUE(lsd_point_test_all(tasks, 0.0).schedulable);
}

TEST(FixedPriority, ZeroCostTasksAlwaysSchedulable) {
  const std::vector<FpTask> tasks = {{1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
  const auto v = response_time_analysis(tasks, 0.0);
  EXPECT_TRUE(v.schedulable);
  EXPECT_DOUBLE_EQ(*v.tasks[2].response_time, 0.0);
}

// ---- utilization bounds -------------------------------------------------------

TEST(FixedPriority, LiuLaylandBoundValues) {
  EXPECT_DOUBLE_EQ(liu_layland_bound(1), 1.0);
  EXPECT_NEAR(liu_layland_bound(2), 0.8284, 1e-4);
  EXPECT_NEAR(liu_layland_bound(3), 0.7798, 1e-4);
  EXPECT_NEAR(liu_layland_bound(100), std::log(2.0), 0.003);
  EXPECT_THROW(liu_layland_bound(0), PreconditionError);
}

TEST(FixedPriority, LiuLaylandBoundIsSufficient) {
  // Any set under the LL bound must pass the exact test.
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<FpTask> tasks;
    const int n = 5;
    const double bound = liu_layland_bound(n);
    for (int i = 0; i < n; ++i) {
      tasks.push_back({rng.uniform(1.0, 100.0), 0.0});
    }
    std::sort(tasks.begin(), tasks.end(),
              [](const FpTask& a, const FpTask& b) { return a.period < b.period; });
    // Distribute utilization strictly below the bound.
    double remaining = bound * 0.99;
    for (auto& t : tasks) {
      const double u = remaining / n;
      t.cost = u * t.period;
    }
    EXPECT_TRUE(response_time_analysis(tasks, 0.0).schedulable);
  }
}

TEST(FixedPriority, HyperbolicProduct) {
  const std::vector<FpTask> tasks = {{2.0, 1.0}, {4.0, 1.0}};  // (1.5)(1.25)
  EXPECT_DOUBLE_EQ(hyperbolic_product(tasks), 1.875);
  // Hyperbolic bound satisfied (< 2) -> schedulable.
  EXPECT_TRUE(response_time_analysis(tasks, 0.0).schedulable);
}

// ---- RTA <-> LSD equivalence (randomized property) ---------------------------

class RtaLsdEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtaLsdEquivalence, AgreeOnRandomSets) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<FpTask> tasks;
    for (int i = 0; i < n; ++i) {
      tasks.push_back({rng.uniform(1.0, 50.0), 0.0});
    }
    std::sort(tasks.begin(), tasks.end(),
              [](const FpTask& a, const FpTask& b) { return a.period < b.period; });
    // Random utilization around the schedulability boundary.
    const double target_u = rng.uniform(0.4, 1.1);
    for (auto& t : tasks) {
      t.cost = rng.uniform(0.0, 2.0 * target_u / n) * t.period;
    }
    const Seconds blocking = rng.uniform(0.0, 0.2);

    const auto rta = response_time_analysis(tasks, blocking);
    const auto lsd = lsd_point_test_all(tasks, blocking);
    ASSERT_EQ(rta.schedulable, lsd.schedulable)
        << "disagreement at trial " << trial << " seed " << GetParam();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(rta.tasks[i].schedulable, lsd.tasks[i].schedulable)
          << "task " << i << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtaLsdEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---- monotonicity property -----------------------------------------------------

class RtaMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtaMonotonicity, ShrinkingCostsPreservesSchedulability) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 10));
    std::vector<FpTask> tasks;
    for (int i = 0; i < n; ++i) tasks.push_back({rng.uniform(1.0, 40.0), 0.0});
    std::sort(tasks.begin(), tasks.end(),
              [](const FpTask& a, const FpTask& b) { return a.period < b.period; });
    for (auto& t : tasks) t.cost = rng.uniform(0.0, 0.3) * t.period;

    if (response_time_analysis(tasks, 0.05).schedulable) {
      auto shrunk = tasks;
      for (auto& t : shrunk) t.cost *= rng.uniform(0.0, 1.0);
      EXPECT_TRUE(response_time_analysis(shrunk, 0.05).schedulable);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtaMonotonicity,
                         ::testing::Values(7, 11, 19, 29, 41));

// ---- scheduling-point deduplication ---------------------------------------------

TEST(LsdPointDedup, HarmonicPeriodsEvaluateEachDistinctPointOnce) {
  // Periods {2, 4, 8}: for task 2 (D = 8) the raw point multiset is
  // {2,4,6,8} from P=2, {4,8} from P=4, {8} from P=8, plus D=8 — nine
  // generated entries but only four distinct instants. An unschedulable
  // set (no early exit) must therefore evaluate the workload exactly four
  // times; pre-dedup the same walk cost nine evaluations.
  const std::vector<FpTask> tasks = {{2.0, 1.5}, {4.0, 1.5}, {8.0, 2.0}};
  std::size_t evals = 0;
  EXPECT_FALSE(lsd_point_test(tasks, 2, 0.0, &evals));
  EXPECT_EQ(evals, 4u);
}

TEST(LsdPointDedup, EarlyExitStopsAtFirstPassingPoint) {
  // Lightly loaded harmonic set: task 2's workload already fits at the
  // first point t = 2, so exactly one evaluation happens despite four
  // distinct points being available.
  const std::vector<FpTask> tasks = {{2.0, 0.5}, {4.0, 0.5}, {8.0, 0.5}};
  std::size_t evals = 0;
  EXPECT_TRUE(lsd_point_test(tasks, 2, 0.0, &evals));
  EXPECT_EQ(evals, 1u);
}

// ---- RTA convergence diagnostics ------------------------------------------------

TEST(RtaDiagnostics, StatusDistinguishesConvergenceFromDeadlineMiss) {
  const std::vector<FpTask> ok = {{4.0, 1.0}, {5.0, 1.5}};
  RtaStatus status = RtaStatus::kIterationCapReached;
  ASSERT_TRUE(response_time(ok, 1, 0.0, &status).has_value());
  EXPECT_EQ(status, RtaStatus::kConverged);

  const std::vector<FpTask> overloaded = {{2.0, 1.5}, {3.0, 1.5}};
  EXPECT_FALSE(response_time(overloaded, 1, 0.0, &status).has_value());
  EXPECT_EQ(status, RtaStatus::kDeadlineExceeded);
}

TEST(RtaDiagnostics, IterationCapIsReportedNotSilent) {
  // U just under 1 with a huge deadline makes the fixpoint creep ~1 time
  // unit per iteration toward r* ~ 50'000, so kMaxRtaIterations (10'000)
  // trips long before convergence or the deadline. The bailout must be
  // visible three ways: RtaStatus, the set verdict's counter, and the
  // obs registry counter the CLI warning reads.
  obs::Registry::global().reset_values();
  const std::vector<FpTask> tasks = {{1.0, 0.99999}, {100'000.0, 0.5}};
  RtaStatus status = RtaStatus::kConverged;
  EXPECT_FALSE(response_time(tasks, 1, 0.0, &status).has_value());
  EXPECT_EQ(status, RtaStatus::kIterationCapReached);

  const auto verdict = response_time_analysis(tasks, 0.0);
  EXPECT_FALSE(verdict.schedulable);
  EXPECT_EQ(verdict.iteration_cap_hits, 1u);

  const auto snap = obs::Registry::global().snapshot();
  EXPECT_GE(snap.counters.at("analysis.rta_cap_hits"), 2u);
}

}  // namespace
}  // namespace tokenring::analysis
