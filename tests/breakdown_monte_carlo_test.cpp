#include "tokenring/breakdown/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tokenring/analysis/ttp.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/net/standards.hpp"
#include "reference_search.hpp"

namespace tokenring::breakdown {
namespace {

msg::MessageSetGenerator small_generator() {
  msg::GeneratorConfig g;
  g.num_streams = 10;
  g.mean_period = milliseconds(100);
  g.period_ratio = 10.0;
  return msg::MessageSetGenerator(g);
}

using reference::Criterion;

// Every estimate goes through the executor; jobs == 1 runs inline.
BreakdownEstimate estimate(const Criterion& criterion, BitsPerSecond bw,
                           std::uint64_t seed, const MonteCarloOptions& opts,
                           std::size_t jobs = 1) {
  const exec::Executor executor(jobs);
  return estimate_breakdown_utilization(
      small_generator(), reference::scaled_copy_factory(criterion), bw, seed,
      executor, opts);
}

analysis::TtpParams small_ttp_params() {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(10);
  p.frame = net::paper_frame_format();
  p.async_frame = net::paper_frame_format();
  return p;
}

Criterion ttp_criterion(BitsPerSecond bw) {
  return [p = small_ttp_params(), bw](const msg::MessageSet& m) {
    return analysis::ttp_feasible(m, p, bw);
  };
}

TEST(MonteCarlo, ClosedFormPredicateRecoversThreshold) {
  // Against "utilization <= 0.8" every saturated sample lands exactly on
  // 0.8, so the estimator must return 0.8 with ~zero variance.
  const BitsPerSecond bw = mbps(10);
  const Criterion criterion = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.8;
  };
  MonteCarloOptions opts;
  opts.num_sets = 25;
  const auto est = estimate(criterion, bw, 1, opts);
  EXPECT_EQ(est.utilization.count(), 25u);
  EXPECT_NEAR(est.mean(), 0.8, 1e-4);
  EXPECT_LT(est.utilization.stddev(), 1e-4);
  EXPECT_EQ(est.degenerate_sets, 0u);
  EXPECT_EQ(est.unbounded_sets, 0u);
}

TEST(MonteCarlo, DeterministicForFixedSeed) {
  const BitsPerSecond bw = mbps(100);
  MonteCarloOptions opts;
  opts.num_sets = 10;
  const auto a = estimate(ttp_criterion(bw), bw, 42, opts);
  const auto b = estimate(ttp_criterion(bw), bw, 42, opts);
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.utilization.stddev(), b.utilization.stddev());
}

TEST(MonteCarlo, DegenerateSamplesCountAsZero) {
  const Criterion never = [](const msg::MessageSet&) { return false; };
  MonteCarloOptions opts;
  opts.num_sets = 5;
  const auto est = estimate(never, mbps(10), 3, opts);
  EXPECT_EQ(est.degenerate_sets, 5u);
  EXPECT_EQ(est.utilization.count(), 5u);
  EXPECT_DOUBLE_EQ(est.mean(), 0.0);
}

TEST(MonteCarlo, UnboundedSamplesExcluded) {
  const Criterion always = [](const msg::MessageSet&) { return true; };
  MonteCarloOptions opts;
  opts.num_sets = 5;
  opts.saturation.max_scale = 100.0;
  const auto est = estimate(always, mbps(10), 4, opts);
  EXPECT_EQ(est.unbounded_sets, 5u);
  EXPECT_EQ(est.utilization.count(), 0u);
}

TEST(MonteCarlo, RealTtpEstimateIsInPlausibleRange) {
  // FDDI at 100 Mbps with 10 stations: average breakdown utilization should
  // land comfortably between the 33% worst case and 100%.
  const BitsPerSecond bw = mbps(100);
  MonteCarloOptions opts;
  opts.num_sets = 30;
  const auto est = estimate(ttp_criterion(bw), bw, 7, opts);
  EXPECT_GT(est.mean(), 0.5);
  EXPECT_LT(est.mean(), 1.0);
  EXPECT_GT(est.ci95(), 0.0);
}

TEST(MonteCarlo, KeepSamplesRecordsEveryDraw) {
  const BitsPerSecond bw = mbps(10);
  const Criterion criterion = [bw](const msg::MessageSet& m) {
    return m.utilization(bw) <= 0.5;
  };
  MonteCarloOptions opts;
  opts.num_sets = 12;
  opts.keep_samples = true;
  const auto est = estimate(criterion, bw, 6, opts);
  ASSERT_EQ(est.samples.size(), 12u);
  for (double s : est.samples) EXPECT_NEAR(s, 0.5, 1e-4);
}

TEST(MonteCarlo, SamplesOffByDefault) {
  const Criterion criterion = [](const msg::MessageSet& m) {
    return m.utilization(mbps(10)) <= 0.5;
  };
  MonteCarloOptions opts;
  opts.num_sets = 3;
  const auto est = estimate(criterion, mbps(10), 6, opts);
  EXPECT_TRUE(est.samples.empty());
  EXPECT_THROW(est.quantile(0.5), PreconditionError);
}

TEST(MonteCarlo, QuantilesAreOrderedAndBracketed) {
  const BitsPerSecond bw = mbps(100);
  MonteCarloOptions opts;
  opts.num_sets = 40;
  opts.keep_samples = true;
  const auto est = estimate(ttp_criterion(bw), bw, 8, opts);
  const double q10 = est.quantile(0.1);
  const double q50 = est.quantile(0.5);
  const double q90 = est.quantile(0.9);
  EXPECT_LE(q10, q50);
  EXPECT_LE(q50, q90);
  EXPECT_DOUBLE_EQ(est.quantile(0.0), est.utilization.min());
  EXPECT_DOUBLE_EQ(est.quantile(1.0), est.utilization.max());
  EXPECT_THROW(est.quantile(1.5), PreconditionError);
}

TEST(MonteCarloParallel, JobsCountDoesNotChangeTheEstimate) {
  // The headline invariant of the exec/ subsystem: for a fixed master seed
  // the BreakdownEstimate is bit-identical for every jobs value, because
  // trial RNGs are keyed by (seed, trial index) and shards are folded in a
  // fixed order. Compare every field exactly — no tolerances.
  const BitsPerSecond bw = mbps(100);
  MonteCarloOptions opts;
  opts.num_sets = 40;
  opts.keep_samples = true;

  const auto a = estimate(ttp_criterion(bw), bw, 42, opts, 1);
  const auto b = estimate(ttp_criterion(bw), bw, 42, opts, 8);

  EXPECT_EQ(a.utilization.count(), b.utilization.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.ci95(), b.ci95());
  EXPECT_EQ(a.utilization.variance(), b.utilization.variance());
  EXPECT_EQ(a.utilization.min(), b.utilization.min());
  EXPECT_EQ(a.utilization.max(), b.utilization.max());
  EXPECT_EQ(a.degenerate_sets, b.degenerate_sets);
  EXPECT_EQ(a.unbounded_sets, b.unbounded_sets);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
  }
}

TEST(MonteCarloParallel, SamplesAreInTrialIndexOrder) {
  // Recompute each trial independently via its seed stream: samples[k] must
  // be the breakdown of trial k regardless of which worker ran it.
  const BitsPerSecond bw = mbps(100);
  const Criterion criterion = ttp_criterion(bw);
  MonteCarloOptions opts;
  opts.num_sets = 24;
  opts.keep_samples = true;
  const std::uint64_t seed = 91;

  const auto est = estimate(criterion, bw, seed, opts, 8);
  ASSERT_EQ(est.samples.size(), opts.num_sets);

  const auto gen = small_generator();
  for (std::size_t k : {std::size_t{0}, std::size_t{7}, std::size_t{23}}) {
    Rng rng = exec::make_trial_rng(seed, k);
    const msg::MessageSet set = gen.generate(rng);
    const auto sat = find_saturation_scaled(
        set, reference::scaled_copy_kernel(set, criterion), bw,
        opts.saturation);
    ASSERT_TRUE(sat.found);
    EXPECT_EQ(est.samples[k], sat.breakdown_utilization) << "trial " << k;
  }
}

TEST(MonteCarloParallel, MergeCombinesCountsAndSamples) {
  BreakdownEstimate a;
  a.utilization.add(0.5);
  a.degenerate_sets = 1;
  a.samples = {0.5};
  BreakdownEstimate b;
  b.utilization.add(0.7);
  b.unbounded_sets = 2;
  b.samples = {0.7};
  a.merge(b);
  EXPECT_EQ(a.utilization.count(), 2u);
  EXPECT_EQ(a.degenerate_sets, 1u);
  EXPECT_EQ(a.unbounded_sets, 2u);
  ASSERT_EQ(a.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(a.samples[0], 0.5);
  EXPECT_DOUBLE_EQ(a.samples[1], 0.7);
}

TEST(MonteCarloParallel, ProgressAndCancellation) {
  const Criterion criterion = [](const msg::MessageSet& m) {
    return m.utilization(mbps(10)) <= 0.5;
  };
  MonteCarloOptions opts;
  opts.num_sets = 32;
  std::size_t last_done = 0;
  opts.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, 32u);
    EXPECT_GE(done, last_done);
    last_done = done;
  };
  const auto est = estimate(criterion, mbps(10), 5, opts);
  EXPECT_EQ(est.utilization.count(), 32u);
  EXPECT_EQ(last_done, 32u);

  exec::CancellationToken token;
  token.request_cancel();
  MonteCarloOptions cancelled = opts;
  cancelled.progress = nullptr;
  cancelled.cancel = token;
  EXPECT_THROW(estimate(criterion, mbps(10), 5, cancelled), exec::Cancelled);
}

TEST(MonteCarlo, Preconditions) {
  MonteCarloOptions opts;
  opts.num_sets = 0;
  const Criterion always = [](const msg::MessageSet&) { return true; };
  EXPECT_THROW(estimate(always, mbps(10), 1, opts), PreconditionError);
  opts.num_sets = 1;
  EXPECT_THROW(estimate(always, 0.0, 1, opts), PreconditionError);
  opts.shard_size = 0;
  EXPECT_THROW(estimate(always, mbps(10), 1, opts), PreconditionError);
}

}  // namespace
}  // namespace tokenring::breakdown
