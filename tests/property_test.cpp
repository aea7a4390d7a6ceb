// Cross-module randomized property tests. Each property here is either an
// invariant the paper's analysis depends on, or a documented *non*-property
// (like the bandwidth anomaly) pinned as an executable fact.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tokenring/analysis/async_capacity.hpp"
#include "tokenring/analysis/fixed_priority.hpp"
#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/msg/io.hpp"
#include "tokenring/net/standards.hpp"
#include "lsd_oracle.hpp"
#include "reference_search.hpp"

namespace tokenring {
namespace {

msg::MessageSetGenerator generator(int streams, Seconds mean = milliseconds(80),
                                   double ratio = 8.0) {
  msg::GeneratorConfig g;
  g.num_streams = streams;
  g.mean_period = mean;
  g.period_ratio = ratio;
  return msg::MessageSetGenerator(g);
}

analysis::PdpParams pdp_params(int n, analysis::PdpVariant v) {
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(n);
  p.frame = net::paper_frame_format();
  p.variant = v;
  return p;
}

analysis::TtpParams ttp_params(int n) {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(n);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return p;
}

// ---- order invariance ----------------------------------------------------------

class OrderInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderInvariance, VerdictsIgnoreStreamOrder) {
  Rng rng(GetParam());
  auto gen = generator(12);
  const auto pdp = pdp_params(12, analysis::PdpVariant::kModified8025);
  const auto ttp = ttp_params(12);
  for (int trial = 0; trial < 10; ++trial) {
    const auto base = gen.generate(rng).scaled(rng.uniform(1.0, 60.0));
    const BitsPerSecond bw = mbps(rng.uniform(4.0, 200.0));

    std::vector<msg::SyncStream> shuffled = base.streams();
    std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
    const msg::MessageSet permuted{std::move(shuffled)};

    EXPECT_EQ(analysis::pdp_feasible(base, pdp, bw),
              analysis::pdp_feasible(permuted, pdp, bw));
    EXPECT_EQ(analysis::ttp_feasible(base, ttp, bw),
              analysis::ttp_feasible(permuted, ttp, bw));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderInvariance, ::testing::Values(1, 2, 3));

// ---- breakdown utilization bounds ------------------------------------------------

class BreakdownBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BreakdownBounds, SaturatedUtilizationIsAProperFraction) {
  Rng rng(GetParam());
  auto gen = generator(10);
  const auto pdp = pdp_params(10, analysis::PdpVariant::kStandard8025);
  const auto ttp = ttp_params(10);
  for (int trial = 0; trial < 8; ++trial) {
    const auto base = gen.generate(rng);
    const BitsPerSecond bw = mbps(rng.uniform(2.0, 500.0));
    for (const auto& criterion :
         {reference::Criterion([&](const msg::MessageSet& m) {
            return analysis::pdp_feasible(m, pdp, bw);
          }),
          reference::Criterion([&](const msg::MessageSet& m) {
            return analysis::ttp_feasible(m, ttp, bw);
          })}) {
      const auto sat = breakdown::find_saturation_scaled(
          base, reference::scaled_copy_kernel(base, criterion), bw);
      if (sat.found) {
        EXPECT_GT(sat.breakdown_utilization, 0.0);
        EXPECT_LE(sat.breakdown_utilization, 1.0 + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BreakdownBounds, ::testing::Values(5, 7));

// ---- the bandwidth anomaly, pinned ------------------------------------------------
//
// Two complementary executable facts:
//  * For a FIXED message set, more bandwidth never hurts: every cost term
//    of Theorem 4.1 (C'_i, B) decreases with bandwidth, so feasibility is
//    monotone. The paper's anomaly is NOT about fixed sets.
//  * What falls with bandwidth is the breakdown *utilization*: at high
//    speed every frame still occupies a Theta-bound slot, so schedulable
//    sets carry an ever-smaller payload fraction.

class BandwidthMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthMonotone, FixedSetFeasibilityNeverDegradesWithBandwidth) {
  Rng rng(GetParam());
  auto gen = generator(12);
  const auto p = pdp_params(12, analysis::PdpVariant::kModified8025);
  int feasible_seen = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const auto set = gen.generate(rng).scaled(rng.uniform(1.0, 60.0));
    bool prev = false;
    for (double bw_mbps : {2.0, 5.0, 20.0, 100.0, 1000.0}) {
      const bool ok = analysis::pdp_feasible(set, p, mbps(bw_mbps));
      if (prev) {
        EXPECT_TRUE(ok) << "feasibility lost at " << bw_mbps << " Mbps";
      }
      prev = ok;
      feasible_seen += ok ? 1 : 0;
    }
  }
  EXPECT_GT(feasible_seen, 0);  // property must not hold vacuously
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthMonotone, ::testing::Values(41, 43));

TEST(BandwidthAnomaly, BreakdownUtilizationFallsWhileTtpRises) {
  // The paper's Figure 1 mechanism on a single payload direction.
  Rng rng(3);
  auto gen = generator(20, milliseconds(100), 10.0);
  const auto base = gen.generate(rng);
  const auto pdp = pdp_params(20, analysis::PdpVariant::kModified8025);
  const auto ttp = ttp_params(20);

  const auto breakdown_at = [&](const auto& params, auto feasible,
                                double bw_mbps) {
    const BitsPerSecond bw = mbps(bw_mbps);
    const auto kernel = reference::scaled_copy_kernel(
        base, [&](const msg::MessageSet& m) { return feasible(m, params, bw); });
    return breakdown::find_saturation_scaled(base, kernel, bw)
        .breakdown_utilization;
  };
  const auto pdp_feasible_fn = [](const msg::MessageSet& m, const auto& p,
                                  BitsPerSecond bw) {
    return analysis::pdp_feasible(m, p, bw);
  };
  const auto ttp_feasible_fn = [](const msg::MessageSet& m, const auto& p,
                                  BitsPerSecond bw) {
    return analysis::ttp_feasible(m, p, bw);
  };

  const double pdp_low = breakdown_at(pdp, pdp_feasible_fn, 5.0);
  const double pdp_high = breakdown_at(pdp, pdp_feasible_fn, 1000.0);
  const double ttp_low = breakdown_at(ttp, ttp_feasible_fn, 5.0);
  const double ttp_high = breakdown_at(ttp, ttp_feasible_fn, 1000.0);

  EXPECT_GT(pdp_low, 2.0 * pdp_high)
      << "PDP breakdown utilization must collapse at high bandwidth";
  EXPECT_GT(ttp_high, ttp_low)
      << "TTP breakdown utilization must keep rising";
}

// ---- augmented length consistency ---------------------------------------------------

class AugmentedLength : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AugmentedLength, HighBandwidthFloorIsThetaPerFrame) {
  // Once F <= Theta, the augmented length equals K*Theta (+ token
  // overhead), independent of the payload's exact bit count within a frame.
  Rng rng(GetParam());
  const auto p = pdp_params(100, analysis::PdpVariant::kModified8025);
  const BitsPerSecond bw = mbps(1000);
  const Seconds theta = p.ring.theta(bw);
  ASSERT_LE(p.frame.frame_time(bw), theta);
  for (int trial = 0; trial < 40; ++trial) {
    const double payload = rng.uniform(1.0, 50'000.0);
    const msg::SyncStream s{milliseconds(100), payload, 0};
    const auto k = p.frame.frames_for_payload(payload);
    EXPECT_NEAR(analysis::pdp_augmented_length(s, p, bw),
                static_cast<double>(k) * theta + theta / 2.0, 1e-15);
  }
}

TEST_P(AugmentedLength, TtpAugmentedMatchesReportField) {
  Rng rng(GetParam() + 100);
  auto gen = generator(8);
  const auto p = ttp_params(8);
  const auto set = gen.generate(rng).scaled(20.0);
  const BitsPerSecond bw = mbps(100);
  const auto v = analysis::ttp_schedulable(set, p, bw);
  for (const auto& r : v.reports) {
    // C'_i = C_i + (q_i - 1) * F_ovhd (paper eq. 8).
    EXPECT_NEAR(r.augmented_length,
                r.stream.payload_time(bw) +
                    static_cast<double>(r.q - 1) * p.frame.overhead_time(bw),
                1e-15);
    // h_i = C'_i / (q_i - 1) (paper eq. 5).
    EXPECT_NEAR(r.h, r.augmented_length / static_cast<double>(r.q - 1),
                1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AugmentedLength, ::testing::Values(11, 13));

TEST(AugmentedLengthRounding, NotBitwiseMonotoneAtFrameBoundaries) {
  // A documented non-property. In exact arithmetic C'_i is non-decreasing
  // in the payload, but the payload one ulp below a multiple of the frame's
  // information bits sums l*F + Theta/2 + (C - l*F_info + F_ovhd) while the
  // multiple itself sums (l+1)*F + Theta/2, and the first can round above
  // the second. This is why the PDP kernel's warm start checks each task's
  // cost against the seeded probe's instead of trusting a larger scale.
  Rng rng(0xB0DA);
  int inversions = 0;
  for (int trial = 0; trial < 50'000; ++trial) {
    auto p = pdp_params(static_cast<int>(rng.uniform_int(2, 100)),
                        trial % 2 == 0 ? analysis::PdpVariant::kModified8025
                                       : analysis::PdpVariant::kStandard8025);
    p.frame = net::frame_format_with_payload_bytes(
        static_cast<double>(rng.uniform_int(16, 512)));
    const BitsPerSecond bw = mbps(rng.uniform(1.0, 1000.0));
    const double boundary =
        static_cast<double>(rng.uniform_int(1, 50)) * p.frame.info_bits;
    const msg::SyncStream at{milliseconds(100), boundary, 0};
    const msg::SyncStream below{milliseconds(100),
                                std::nextafter(boundary, 0.0), 0};
    if (analysis::pdp_augmented_length(below, p, bw) >
        analysis::pdp_augmented_length(at, p, bw)) {
      ++inversions;
    }
  }
  EXPECT_GT(inversions, 0);
}

// ---- async capacity coherence ---------------------------------------------------------

TEST(AsyncCapacityProperty, CapacityPlusDemandNeverExceedsOneWhenFeasible) {
  Rng rng(31);
  auto gen = generator(10);
  const auto p = pdp_params(10, analysis::PdpVariant::kStandard8025);
  int feasible_seen = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto set = gen.generate(rng).scaled(rng.uniform(0.1, 40.0));
    const BitsPerSecond bw = mbps(rng.uniform(2.0, 200.0));
    if (!analysis::pdp_feasible(set, p, bw)) continue;  // capacity undefined
    ++feasible_seen;
    const double cap = analysis::pdp_async_capacity(set, p, bw);
    // For a guaranteed load: raw synchronous utilization + async leftover
    // can never exceed the link.
    EXPECT_LE(set.utilization(bw) + cap, 1.0 + 1e-9);
  }
  EXPECT_GT(feasible_seen, 0);
}

// ---- scenario CSV fuzz round trip --------------------------------------------------------

class CsvRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvRoundTrip, RandomSetsSurviveSerialization) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 40));
    auto gen = generator(n, milliseconds(rng.uniform(5.0, 500.0)),
                         rng.uniform(1.0, 50.0));
    const auto set = gen.generate(rng).scaled(rng.uniform(0.01, 1'000.0));
    const auto parsed = msg::message_set_from_csv(msg::to_csv(set));
    ASSERT_EQ(parsed.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
      EXPECT_EQ(parsed[i].station, set[i].station);
      EXPECT_DOUBLE_EQ(parsed[i].period, set[i].period);
      EXPECT_DOUBLE_EQ(parsed[i].payload_bits, set[i].payload_bits);
    }
    // Verdicts survive the round trip bit-exactly.
    const auto p = ttp_params(40);
    const BitsPerSecond bw = mbps(100);
    EXPECT_EQ(analysis::ttp_feasible(set, p, bw),
              analysis::ttp_feasible(parsed, p, bw));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTrip, ::testing::Values(17, 19, 23));

// ---- fast-kernel differential --------------------------------------------------------
//
// The screened verdict (rta_feasible_fast) and the scale-space kernels
// (PdpScaleKernel, TtpScaleKernel) are drop-in replacements for the exact
// analyses; these tests pin verdict-for-verdict
// agreement on a large randomized corpus drawn from the exec/ seed stream
// (fixed master seeds, so every run and every machine sees the same sets).

std::vector<analysis::FpTask> random_task_set(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 8));
  // Total utilization straddling the feasibility boundary so both verdicts
  // appear, plus occasional zero-cost (degenerate payload) tasks.
  double remaining = rng.uniform(0.1, 1.4);
  const bool constrained = rng.uniform01() < 0.3;
  std::vector<analysis::FpTask> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& t = tasks[i];
    t.period = rng.uniform(0.01, 0.1);
    const double share =
        i + 1 == n ? remaining : rng.uniform(0.0, remaining);
    remaining -= share;
    t.cost = share * t.period;
    if (rng.uniform01() < 0.1) t.cost = 0.0;
    if (constrained) t.deadline = t.period * rng.uniform(0.5, 1.0);
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const analysis::FpTask& a, const analysis::FpTask& b) {
              return a.effective_deadline() < b.effective_deadline();
            });
  return tasks;
}

TEST(FastKernelDifferential, ScreenedVerdictsMatchExactOn10kTaskSets) {
  int schedulable = 0;
  int infeasible = 0;
  for (std::uint64_t trial = 0; trial < 10'000; ++trial) {
    Rng rng = exec::make_trial_rng(0xFA57, trial);
    const auto tasks = random_task_set(rng);
    const Seconds blocking =
        rng.uniform01() < 0.3 ? 0.0 : rng.uniform(0.0, 0.02);

    const bool exact_rta =
        analysis::response_time_analysis(tasks, blocking).schedulable;
    const bool exact_lsd =
        reference::lsd_point_test_all(tasks, blocking).schedulable;
    ASSERT_EQ(exact_rta, exact_lsd) << "exact analyses split at trial "
                                    << trial;
    ASSERT_EQ(exact_rta, analysis::rta_feasible_fast(tasks, blocking))
        << "rta_feasible_fast disagrees at trial " << trial;
    (exact_rta ? schedulable : infeasible) += 1;
  }
  // The corpus must exercise both verdicts, or the agreement is vacuous.
  EXPECT_GT(schedulable, 100);
  EXPECT_GT(infeasible, 100);
}

TEST(FastKernelDifferential, WarmStartedRtaMatchesColdOn10kTaskSets) {
  // The warm start's claim: seeding task i's fixpoint with its response
  // time at a lower payload scale changes only where the iteration starts.
  // Costs scale as C * s, so C * s_lo <= C * s bitwise, and the seeded
  // fixpoint must return the cold one's verdict, status and R bit for bit.
  int seeded = 0;
  int warm_above_cold_start = 0;
  int schedulable = 0;
  int infeasible = 0;
  for (std::uint64_t trial = 0; trial < 10'000; ++trial) {
    Rng rng = exec::make_trial_rng(0x5EED, trial);
    const auto base = random_task_set(rng);
    const Seconds blocking =
        rng.uniform01() < 0.3 ? 0.0 : rng.uniform(0.0, 0.02);
    const double s = rng.uniform(0.2, 1.2);
    const double pick = rng.uniform01();
    const double s_lo = pick < 0.1 ? 0.0 : pick < 0.2 ? s
                                                      : s * rng.uniform01();
    auto lo = base;
    auto hi = base;
    for (std::size_t i = 0; i < base.size(); ++i) {
      lo[i].cost = base[i].cost * s_lo;
      hi[i].cost = base[i].cost * s;
    }

    std::vector<Seconds> seeds(base.size(), 0.0);
    for (std::size_t i = 0; i < base.size(); ++i) {
      const auto r_lo = analysis::response_time(lo, i, blocking);
      if (!r_lo) continue;
      seeds[i] = *r_lo;
      ++seeded;
      if (*r_lo > blocking + hi[i].cost) ++warm_above_cold_start;

      analysis::RtaStatus cold_status{};
      analysis::RtaStatus warm_status{};
      const auto cold = analysis::response_time(hi, i, blocking, &cold_status);
      const auto warm =
          analysis::response_time(hi, i, blocking, &warm_status, *r_lo);
      ASSERT_EQ(warm.has_value(), cold.has_value())
          << "verdicts split at trial " << trial << " task " << i;
      ASSERT_EQ(warm_status, cold_status) << "trial " << trial << " task " << i;
      if (cold) {
        ASSERT_EQ(*warm, *cold)
            << "R differs at trial " << trial << " task " << i;
      }
    }

    // Set level: the seeded screened verdict equals the cold one, and so
    // does the task a failure names.
    std::size_t cold_hint = static_cast<std::size_t>(-1);
    std::size_t warm_hint = static_cast<std::size_t>(-1);
    std::vector<Seconds> out(base.size(), 0.0);
    const bool cold = analysis::rta_feasible_fast(hi, blocking, &cold_hint);
    const bool warm =
        analysis::rta_feasible_fast(hi, blocking, &warm_hint, seeds, out);
    ASSERT_EQ(warm, cold) << "set verdicts split at trial " << trial;
    ASSERT_EQ(warm_hint, cold_hint) << "failed task differs at trial "
                                    << trial;
    ASSERT_EQ(cold, analysis::response_time_analysis(hi, blocking).schedulable)
        << "trial " << trial;
    (cold ? schedulable : infeasible) += 1;
  }
  // Non-vacuous: many seeds, most starting above the cold r^0, and both
  // verdicts.
  EXPECT_GT(seeded, 10'000);
  EXPECT_GT(warm_above_cold_start, 5'000);
  EXPECT_GT(schedulable, 100);
  EXPECT_GT(infeasible, 100);
}

TEST(FastKernelDifferential, ScaleKernelsMatchPredicatesScaleForScale) {
  int schedulable = 0;
  int infeasible = 0;
  int low_q = 0;
  int drops = 0;
  for (std::uint64_t trial = 0; trial < 1'000; ++trial) {
    Rng rng = exec::make_trial_rng(0x5CA1E, trial);
    const int n = static_cast<int>(rng.uniform_int(1, 16));
    auto gen = generator(n, milliseconds(rng.uniform(20.0, 200.0)),
                         rng.uniform(1.0, 10.0));
    auto base = gen.generate(rng);
    if (rng.uniform01() < 0.05) {
      // Degenerate all-zero payload set: kernels must still agree.
      std::vector<msg::SyncStream> zeroed = base.streams();
      for (auto& s : zeroed) s.payload_bits = 0.0;
      base = msg::MessageSet{std::move(zeroed)};
    }
    const BitsPerSecond bw = mbps(rng.uniform(4.0, 200.0));
    // Alternate variants so both token-overhead branches of the augmented
    // length (per frame vs per message) face the predicate.
    const auto variant = trial % 2 == 0 ? analysis::PdpVariant::kModified8025
                                        : analysis::PdpVariant::kStandard8025;
    const auto pdp = pdp_params(n, variant);
    const auto ttp = ttp_params(n);
    // Up to 40 ms, the pinned TTRT often leaves some q_i < 2: deadline-
    // infeasible at every scale.
    const Seconds pinned_ttrt = milliseconds(rng.uniform(0.5, 40.0));
    // The PDP comparison must not be vacuous about blocking.
    ASSERT_GT(analysis::pdp_blocking(pdp, bw), 0.0);
    double min_deadline = base.streams()[0].deadline();
    for (const auto& s : base.streams()) {
      min_deadline = std::min(min_deadline, s.deadline());
    }
    if (min_deadline / pinned_ttrt < 2.0) ++low_q;

    analysis::PdpScaleKernel pdp_kernel(base, pdp, bw);
    analysis::TtpScaleKernel ttp_kernel(base, ttp, bw);
    analysis::TtpScaleKernel ttp_kernel_at(base, ttp, bw, pinned_ttrt);
    // Probe every kernel at `scale` against its predicate; returns the PDP
    // verdict.
    const auto check = [&](double scale, const char* phase) {
      const auto scaled = base.scaled(scale);
      const bool pdp_ref = analysis::pdp_feasible(scaled, pdp, bw);
      EXPECT_EQ(pdp_kernel(scale), pdp_ref)
          << "PDP kernel disagrees at trial " << trial << " scale " << scale
          << " (" << phase << ")";
      EXPECT_EQ(ttp_kernel(scale), analysis::ttp_feasible(scaled, ttp, bw))
          << "TTP kernel disagrees at trial " << trial << " scale " << scale
          << " (" << phase << ")";
      EXPECT_EQ(ttp_kernel_at(scale),
                analysis::ttp_feasible_at(scaled, ttp, bw, pinned_ttrt))
          << "pinned-TTRT kernel disagrees at trial " << trial << " scale "
          << scale << " (" << phase << ")";
      (pdp_ref ? schedulable : infeasible) += 1;
      return pdp_ref;
    };

    // Random probe order, including scale 0, exercises the PDP kernel's
    // carried failed-task hint and warm-start guard out of search order.
    for (int probe = 0; probe < 5; ++probe) {
      check(probe == 0 ? 0.0 : rng.uniform(0.0, 50.0), "random");
    }

    // Then a search-shaped sequence on fresh kernels: scale 0, an
    // ascending bracket, bisection steps, and one drop below the last
    // schedulable scale, which the warm start must not seed from above.
    pdp_kernel = analysis::PdpScaleKernel(base, pdp, bw);
    ttp_kernel = analysis::TtpScaleKernel(base, ttp, bw);
    ttp_kernel_at = analysis::TtpScaleKernel(base, ttp, bw, pinned_ttrt);
    if (!check(0.0, "zero")) continue;
    double lo = 0.0;
    double hi = rng.uniform(0.05, 2.0);
    while (hi < 1e3 && check(hi, "bracket")) {
      lo = hi;
      hi *= 2.0;
    }
    for (int step = 0; step < 8; ++step) {
      const double mid = 0.5 * (lo + hi);
      (check(mid, "bisect") ? lo : hi) = mid;
    }
    if (lo > 0.0) {
      check(lo * rng.uniform(0.0, 1.0), "drop");
      check(0.5 * (lo + hi), "after drop");
      ++drops;
    }
  }
  EXPECT_GT(schedulable, 100);
  EXPECT_GT(infeasible, 100);
  EXPECT_GT(low_q, 10);
  EXPECT_GT(drops, 100);
}

TEST(FastKernelDifferential, KernelSaturationMatchesPredicateFieldForField) {
  // Whole searches: the kernel path must reproduce the search over scaled
  // copies in every field, including predicate_evals (so every probe
  // verdict along the way), for all three outcome classes.
  int found = 0;
  int degenerate = 0;
  int unbounded = 0;
  for (std::uint64_t trial = 0; trial < 600; ++trial) {
    Rng rng = exec::make_trial_rng(0x5A7B, trial);
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    auto gen = generator(n, milliseconds(rng.uniform(20.0, 200.0)),
                         rng.uniform(1.0, 10.0));
    const msg::MessageSet base = gen.generate(rng);
    const BitsPerSecond bw = mbps(rng.uniform(2.0, 500.0));
    const auto variant = trial % 2 == 0 ? analysis::PdpVariant::kModified8025
                                        : analysis::PdpVariant::kStandard8025;
    const auto pdp = pdp_params(n, variant);
    const auto ttp = ttp_params(n);
    // A large pinned TTRT manufactures deadline-infeasible (q_i < 2) sets,
    // which must surface as degenerate_zero on both paths.
    const Seconds pinned_ttrt = milliseconds(rng.uniform(0.5, 60.0));
    // A tight max_scale on some trials manufactures "unbounded" searches
    // (bracketing walks off the top), covering the third outcome class.
    breakdown::SaturationOptions options;
    if (trial % 3 == 0) options.max_scale = 4.0;

    const auto expect_match = [&](const breakdown::ScaleKernel& kernel,
                                  const reference::Criterion& criterion,
                                  const char* what) {
      const auto got =
          breakdown::find_saturation_scaled(base, kernel, bw, options);
      const auto ref = breakdown::find_saturation_scaled(
          base, reference::scaled_copy_kernel(base, criterion), bw, options);
      EXPECT_EQ(got.found, ref.found) << what << " trial " << trial;
      EXPECT_EQ(got.degenerate_zero, ref.degenerate_zero)
          << what << " trial " << trial;
      EXPECT_EQ(got.critical_scale, ref.critical_scale)
          << what << " trial " << trial;
      EXPECT_EQ(got.breakdown_utilization, ref.breakdown_utilization)
          << what << " trial " << trial;
      EXPECT_EQ(got.predicate_evals, ref.predicate_evals)
          << what << " trial " << trial;
      found += got.found ? 1 : 0;
      degenerate += got.degenerate_zero ? 1 : 0;
      unbounded += (!got.found && !got.degenerate_zero) ? 1 : 0;
    };

    expect_match(analysis::PdpScaleKernel(base, pdp, bw),
                 [&](const msg::MessageSet& set) {
                   return analysis::pdp_feasible(set, pdp, bw);
                 },
                 "PDP");
    expect_match(analysis::TtpScaleKernel(base, ttp, bw),
                 [&](const msg::MessageSet& set) {
                   return analysis::ttp_feasible(set, ttp, bw);
                 },
                 "TTP");
    expect_match(analysis::TtpScaleKernel(base, ttp, bw, pinned_ttrt),
                 [&](const msg::MessageSet& set) {
                   return analysis::ttp_feasible_at(set, ttp, bw, pinned_ttrt);
                 },
                 "pinned-TTRT");
  }
  // All three outcome classes must appear, or bit-identity on the
  // interesting paths is vacuous.
  EXPECT_GT(found, 100);
  EXPECT_GT(degenerate, 10);
  EXPECT_GT(unbounded, 0);
}

// ---- TTRT scaling ---------------------------------------------------------------------

TEST(TtrtProperty, SelectionScalesWithSqrtTheta) {
  // For fixed periods, TTRT ~ sqrt(Theta): quadrupling Theta (via ring
  // size at fixed bandwidth contributions) roughly doubles the bid, as
  // long as the P_min/2 clamp stays inactive.
  msg::MessageSet set;
  set.add({.period = milliseconds(400), .payload_bits = 1.0, .station = 0});
  const Seconds theta = microseconds(50);
  const Seconds bid1 = analysis::ttrt_bid(milliseconds(400), theta);
  const Seconds bid4 = analysis::ttrt_bid(milliseconds(400), 4.0 * theta);
  EXPECT_NEAR(bid4 / bid1, 2.0, 1e-9);
}

}  // namespace
}  // namespace tokenring
