#include "tokenring/breakdown/saturation.hpp"

#include <gtest/gtest.h>

#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/net/standards.hpp"
#include "reference_search.hpp"

namespace tokenring::breakdown {
namespace {

msg::MessageSet simple_set() {
  msg::MessageSet set;
  set.add({.period = milliseconds(10), .payload_bits = 1'000.0, .station = 0});
  set.add({.period = milliseconds(20), .payload_bits = 4'000.0, .station = 1});
  return set;
}

// The search over scaled copies of `base`: the reference every kernel
// must match.
SaturationResult search(const msg::MessageSet& base,
                        const reference::Criterion& criterion,
                        BitsPerSecond bw, const SaturationOptions& opts = {}) {
  return find_saturation_scaled(
      base, reference::scaled_copy_kernel(base, criterion), bw, opts);
}

TEST(Saturation, AnalyticUtilizationThreshold) {
  // Predicate: utilization at 1 Mbps <= 0.8. The base set has utilization
  // 0.1 + 0.2 = 0.3, so the critical scale is 0.8 / 0.3.
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.8;
  };
  const auto res = search(simple_set(), predicate, bw);
  ASSERT_TRUE(res.found);
  EXPECT_FALSE(res.degenerate_zero);
  EXPECT_NEAR(res.critical_scale, 0.8 / 0.3, 1e-4);
  EXPECT_NEAR(res.breakdown_utilization, 0.8, 1e-4);
}

TEST(Saturation, TightToleranceTightensResult) {
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.5;
  };
  SaturationOptions opts;
  opts.relative_tolerance = 1e-10;
  const auto res = search(simple_set(), predicate, bw, opts);
  ASSERT_TRUE(res.found);
  EXPECT_NEAR(res.breakdown_utilization, 0.5, 1e-8);
}

TEST(Saturation, BracketsUpwardFromSmallInitialScale) {
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.9;
  };
  SaturationOptions opts;
  opts.initial_scale = 1e-6;  // far below the boundary
  const auto res = search(simple_set(), predicate, bw, opts);
  ASSERT_TRUE(res.found);
  EXPECT_NEAR(res.breakdown_utilization, 0.9, 1e-4);
}

TEST(Saturation, BracketsDownwardFromLargeInitialScale) {
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.2;
  };
  SaturationOptions opts;
  opts.initial_scale = 1e6;  // far above the boundary
  const auto res = search(simple_set(), predicate, bw, opts);
  ASSERT_TRUE(res.found);
  EXPECT_NEAR(res.breakdown_utilization, 0.2, 1e-4);
}

TEST(Saturation, DegenerateWhenPredicateFailsAtZero) {
  const auto never = [](const msg::MessageSet&) { return false; };
  const auto res = search(simple_set(), never, mbps(1));
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.degenerate_zero);
}

TEST(Saturation, UnboundedWhenPredicateNeverFails) {
  const auto always = [](const msg::MessageSet&) { return true; };
  SaturationOptions opts;
  opts.max_scale = 1e6;
  const auto res = search(simple_set(), always, mbps(1), opts);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.degenerate_zero);
  EXPECT_GT(res.critical_scale, 0.0);
}

TEST(Saturation, CriticalScaleIsOnSchedulableSide) {
  // The reported scale must itself satisfy the predicate (it is the lower
  // bracket end).
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.7;
  };
  const auto res = search(simple_set(), predicate, bw);
  ASSERT_TRUE(res.found);
  EXPECT_TRUE(predicate(simple_set().scaled(res.critical_scale)));
  EXPECT_FALSE(predicate(simple_set().scaled(res.critical_scale * 1.001)));
}

TEST(Saturation, WorksAgainstRealPdpCriterion) {
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(2);
  p.frame = net::paper_frame_format();
  p.variant = analysis::PdpVariant::kModified8025;
  const BitsPerSecond bw = mbps(10);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::pdp_feasible(m, p, bw);
  };
  const auto res = search(simple_set(), predicate, bw);
  ASSERT_TRUE(res.found);
  EXPECT_GT(res.breakdown_utilization, 0.1);
  EXPECT_LT(res.breakdown_utilization, 1.0);
  // Boundary property: schedulable at the critical scale, not above.
  EXPECT_TRUE(predicate(simple_set().scaled(res.critical_scale)));
  EXPECT_FALSE(predicate(simple_set().scaled(res.critical_scale * 1.01)));
}

TEST(Saturation, WorksAgainstRealTtpCriterion) {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(2);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  const BitsPerSecond bw = mbps(100);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, p, bw);
  };
  const auto res = search(simple_set(), predicate, bw);
  ASSERT_TRUE(res.found);
  EXPECT_GT(res.breakdown_utilization, 0.3);
  EXPECT_LT(res.breakdown_utilization, 1.0);
}

// ---- protocol kernels vs the scaled-copy reference ---------------------------

TEST(SaturationKernel, PdpKernelPathIsBitIdenticalToPredicatePath) {
  // Same bisection, same verdicts => same probe sequence: critical scale,
  // utilization and probe count must match the search over scaled copies
  // exactly, not approximately, over a corpus of random sets.
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(8);
  p.frame = net::paper_frame_format();
  p.variant = analysis::PdpVariant::kModified8025;
  const BitsPerSecond bw = mbps(16);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::pdp_feasible(m, p, bw);
  };
  msg::GeneratorConfig g;
  g.num_streams = 8;
  g.mean_period = milliseconds(100);
  msg::MessageSetGenerator gen(g);
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const auto base = gen.generate(rng);
    const auto ref = search(base, predicate, bw);
    const auto fast = find_saturation_scaled(
        base, analysis::PdpScaleKernel(base, p, bw), bw);
    ASSERT_EQ(ref.found, fast.found) << "trial " << trial;
    EXPECT_EQ(ref.critical_scale, fast.critical_scale) << "trial " << trial;
    EXPECT_EQ(ref.breakdown_utilization, fast.breakdown_utilization)
        << "trial " << trial;
    EXPECT_EQ(ref.degenerate_zero, fast.degenerate_zero);
    EXPECT_EQ(ref.predicate_evals, fast.predicate_evals) << "trial " << trial;
  }
}

TEST(SaturationKernel, TtpKernelPathIsBitIdenticalToPredicatePath) {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(8);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  const BitsPerSecond bw = mbps(100);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, p, bw);
  };
  msg::GeneratorConfig g;
  g.num_streams = 8;
  g.mean_period = milliseconds(100);
  msg::MessageSetGenerator gen(g);
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const auto base = gen.generate(rng);
    const auto ref = search(base, predicate, bw);
    const auto fast = find_saturation_scaled(
        base, analysis::TtpScaleKernel(base, p, bw), bw);
    ASSERT_EQ(ref.found, fast.found) << "trial " << trial;
    EXPECT_EQ(ref.critical_scale, fast.critical_scale) << "trial " << trial;
    EXPECT_EQ(ref.breakdown_utilization, fast.breakdown_utilization)
        << "trial " << trial;
    EXPECT_EQ(ref.predicate_evals, fast.predicate_evals) << "trial " << trial;
  }
}

TEST(SaturationKernel, PredicateEvalsCountsEveryProbe) {
  // The analytic-threshold search must report a plausible probe count:
  // at least the bracketing probes plus ~log2(1/tol) bisection steps.
  const BitsPerSecond bw = mbps(1);
  const auto predicate = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.8;
  };
  const auto res = search(simple_set(), predicate, bw);
  ASSERT_TRUE(res.found);
  EXPECT_GE(res.predicate_evals, 20);
  EXPECT_LE(res.predicate_evals, 200);
}

TEST(Saturation, Preconditions) {
  const auto always = [](const msg::MessageSet&) { return true; };
  msg::MessageSet empty;
  EXPECT_THROW(search(empty, always, mbps(1)), PreconditionError);

  msg::MessageSet zero;
  zero.add({.period = milliseconds(10), .payload_bits = 0.0, .station = 0});
  EXPECT_THROW(search(zero, always, mbps(1)), PreconditionError);

  SaturationOptions bad;
  bad.relative_tolerance = 0.0;
  EXPECT_THROW(search(simple_set(), always, mbps(1), bad),
               PreconditionError);
  bad = {};
  bad.initial_scale = 0.0;
  EXPECT_THROW(search(simple_set(), always, mbps(1), bad),
               PreconditionError);
  EXPECT_THROW(search(simple_set(), always, 0.0), PreconditionError);
}

}  // namespace
}  // namespace tokenring::breakdown
