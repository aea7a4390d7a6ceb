// Integration tests: the discrete-event simulators must validate the
// analytical schedulability criteria.
//
//  * TTP (Theorem 5.1) is a worst-case guarantee: any set passing it, with
//    the local allocation, must meet every deadline in simulation under
//    adversarial phasing and saturating asynchronous load — even right at
//    the saturation boundary.
//  * PDP (Theorem 4.1) charges the *average* token-circulation overhead
//    (Theta/2 per pass); a particular execution can see walks up to Theta,
//    so sets comfortably inside the boundary (0.6x) must be clean while
//    sets far outside it (3x) must miss.

#include <gtest/gtest.h>

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/msg/generator.hpp"
#include "tokenring/net/standards.hpp"
#include "tokenring/sim/config.hpp"
#include "reference_search.hpp"

namespace tokenring {
namespace {

msg::MessageSetGenerator make_generator(int streams) {
  msg::GeneratorConfig g;
  g.num_streams = streams;
  g.mean_period = milliseconds(60);
  g.period_ratio = 6.0;
  return msg::MessageSetGenerator(g);
}

// ---- TTP: criterion is a hard guarantee -------------------------------------

class TtpAgreement
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(TtpAgreement, SchedulableSetsNeverMissDeadlines) {
  const auto [bw_mbps, seed] = GetParam();
  const BitsPerSecond bw = mbps(bw_mbps);
  const int n = 12;

  analysis::TtpParams params;
  params.ring = net::fddi_ring(n);
  params.frame = net::paper_frame_format();
  params.async_frame = net::paper_frame_format();

  Rng rng(seed);
  auto gen = make_generator(n);
  const auto base = gen.generate(rng);

  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, params, bw);
  };
  const auto sat = breakdown::find_saturation_scaled(
      base, reference::scaled_copy_kernel(base, predicate), bw);
  if (!sat.found) GTEST_SKIP() << "degenerate at this bandwidth";

  // Just inside the boundary: must be clean even under worst-case phasing
  // and saturating asynchronous traffic.
  const auto set = base.scaled(sat.critical_scale * 0.99);
  ASSERT_TRUE(analysis::ttp_feasible(set, params, bw));

  sim::SimConfig cfg;
  cfg.protocol = sim::Protocol::kTtp;
  cfg.ttp = params;
  cfg.bandwidth = bw;
  cfg.horizon = 4.0 * set.max_period();
  cfg.worst_case_phasing = true;
  cfg.async_model = sim::AsyncModel::kSaturating;
  const auto metrics = sim::run_simulation(set, cfg);

  EXPECT_GT(metrics.messages_completed, 0u);
  EXPECT_EQ(metrics.deadline_misses, 0u)
      << "analysis-schedulable set missed deadlines in simulation";
}

TEST_P(TtpAgreement, GrosslyOversaturatedSetsMiss) {
  const auto [bw_mbps, seed] = GetParam();
  const BitsPerSecond bw = mbps(bw_mbps);
  const int n = 12;

  analysis::TtpParams params;
  params.ring = net::fddi_ring(n);
  params.frame = net::paper_frame_format();
  params.async_frame = net::paper_frame_format();

  Rng rng(seed);
  auto gen = make_generator(n);
  const auto base = gen.generate(rng);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, params, bw);
  };
  const auto sat = breakdown::find_saturation_scaled(
      base, reference::scaled_copy_kernel(base, predicate), bw);
  if (!sat.found) GTEST_SKIP() << "degenerate at this bandwidth";

  // 3x the boundary cannot be served: payload demand alone exceeds the
  // synchronous capacity the ring can rotate.
  const auto set = base.scaled(sat.critical_scale * 3.0);
  ASSERT_FALSE(analysis::ttp_feasible(set, params, bw));

  sim::SimConfig cfg;
  cfg.protocol = sim::Protocol::kTtp;
  cfg.ttp = params;
  cfg.bandwidth = bw;
  cfg.horizon = 6.0 * set.max_period();
  cfg.worst_case_phasing = true;
  cfg.async_model = sim::AsyncModel::kSaturating;
  // Allocate with the (now infeasible) local rule anyway: rotations blow
  // past TTRT and deadlines fall.
  const auto metrics = sim::run_simulation(set, cfg);
  EXPECT_GT(metrics.deadline_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BandwidthSeeds, TtpAgreement,
    ::testing::Combine(::testing::Values(20.0, 100.0, 500.0),
                       ::testing::Values(1u, 2u, 3u)));

// ---- PDP: criterion with average-case token overhead --------------------------

class PdpAgreement
    : public ::testing::TestWithParam<
          std::tuple<double, std::uint64_t, analysis::PdpVariant>> {};

TEST_P(PdpAgreement, ComfortablyScheduledSetsAreClean) {
  const auto [bw_mbps, seed, variant] = GetParam();
  const BitsPerSecond bw = mbps(bw_mbps);
  const int n = 10;

  analysis::PdpParams params;
  params.ring = net::ieee8025_ring(n);
  params.frame = net::paper_frame_format();
  params.variant = variant;

  Rng rng(seed);
  auto gen = make_generator(n);
  const auto base = gen.generate(rng);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::pdp_feasible(m, params, bw);
  };
  const auto sat = breakdown::find_saturation_scaled(
      base, reference::scaled_copy_kernel(base, predicate), bw);
  if (!sat.found) GTEST_SKIP() << "degenerate at this bandwidth";

  const auto set = base.scaled(sat.critical_scale * 0.6);
  ASSERT_TRUE(analysis::pdp_feasible(set, params, bw));

  sim::SimConfig cfg;
  cfg.protocol = sim::Protocol::kPdp;
  cfg.pdp = params;
  cfg.bandwidth = bw;
  cfg.horizon = 4.0 * set.max_period();
  cfg.worst_case_phasing = true;
  cfg.async_model = sim::AsyncModel::kSaturating;
  const auto metrics = sim::run_simulation(set, cfg);

  EXPECT_GT(metrics.messages_completed, 0u);
  EXPECT_EQ(metrics.deadline_misses, 0u);
}

TEST_P(PdpAgreement, GrosslyOverloadedSetsMiss) {
  const auto [bw_mbps, seed, variant] = GetParam();
  const BitsPerSecond bw = mbps(bw_mbps);
  const int n = 10;

  analysis::PdpParams params;
  params.ring = net::ieee8025_ring(n);
  params.frame = net::paper_frame_format();
  params.variant = variant;

  Rng rng(seed);
  auto gen = make_generator(n);
  const auto base = gen.generate(rng);
  const auto predicate = [&](const msg::MessageSet& m) {
    return analysis::pdp_feasible(m, params, bw);
  };
  const auto sat = breakdown::find_saturation_scaled(
      base, reference::scaled_copy_kernel(base, predicate), bw);
  if (!sat.found) GTEST_SKIP() << "degenerate at this bandwidth";

  const auto set = base.scaled(sat.critical_scale * 3.0);
  ASSERT_FALSE(analysis::pdp_feasible(set, params, bw));

  sim::SimConfig cfg;
  cfg.protocol = sim::Protocol::kPdp;
  cfg.pdp = params;
  cfg.bandwidth = bw;
  cfg.horizon = 6.0 * set.max_period();
  cfg.worst_case_phasing = true;
  cfg.async_model = sim::AsyncModel::kSaturating;
  const auto metrics = sim::run_simulation(set, cfg);
  EXPECT_GT(metrics.deadline_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BandwidthSeedsVariants, PdpAgreement,
    ::testing::Combine(::testing::Values(4.0, 16.0, 100.0),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(analysis::PdpVariant::kStandard8025,
                                         analysis::PdpVariant::kModified8025)));

// ---- Breakdown pipeline end-to-end --------------------------------------------

TEST(BreakdownPipeline, TtpBoundarySetsSitOnTheCriterionEdge) {
  const BitsPerSecond bw = mbps(100);
  const int n = 16;
  analysis::TtpParams params;
  params.ring = net::fddi_ring(n);
  params.frame = net::paper_frame_format();
  params.async_frame = net::paper_frame_format();

  Rng rng(99);
  auto gen = make_generator(n);
  for (int trial = 0; trial < 5; ++trial) {
    const auto base = gen.generate(rng);
    const auto predicate = [&](const msg::MessageSet& m) {
      return analysis::ttp_feasible(m, params, bw);
    };
    const auto sat = breakdown::find_saturation_scaled(
        base, reference::scaled_copy_kernel(base, predicate), bw);
    ASSERT_TRUE(sat.found);
    EXPECT_TRUE(predicate(base.scaled(sat.critical_scale)));
    EXPECT_FALSE(predicate(base.scaled(sat.critical_scale * 1.0001)));
    EXPECT_GT(sat.breakdown_utilization, 0.0);
    EXPECT_LT(sat.breakdown_utilization, 1.0);
  }
}

TEST(BreakdownPipeline, PdpVariantOrderingAtSaturation) {
  // At the same bandwidth, the modified variant's breakdown utilization is
  // at least the standard's for any payload direction.
  const BitsPerSecond bw = mbps(10);
  const int n = 16;
  analysis::PdpParams std_params;
  std_params.ring = net::ieee8025_ring(n);
  std_params.frame = net::paper_frame_format();
  std_params.variant = analysis::PdpVariant::kStandard8025;
  auto mod_params = std_params;
  mod_params.variant = analysis::PdpVariant::kModified8025;

  Rng rng(7);
  auto gen = make_generator(n);
  for (int trial = 0; trial < 5; ++trial) {
    const auto base = gen.generate(rng);
    const auto sat_std = breakdown::find_saturation_scaled(
        base,
        reference::scaled_copy_kernel(
            base,
            [&](const msg::MessageSet& m) {
              return analysis::pdp_feasible(m, std_params, bw);
            }),
        bw);
    const auto sat_mod = breakdown::find_saturation_scaled(
        base,
        reference::scaled_copy_kernel(
            base,
            [&](const msg::MessageSet& m) {
              return analysis::pdp_feasible(m, mod_params, bw);
            }),
        bw);
    ASSERT_TRUE(sat_std.found);
    ASSERT_TRUE(sat_mod.found);
    EXPECT_GE(sat_mod.breakdown_utilization,
              sat_std.breakdown_utilization - 1e-9);
  }
}

}  // namespace
}  // namespace tokenring
