#include "tokenring/breakdown/monte_carlo.hpp"

#include <algorithm>
#include <cmath>

#include "tokenring/common/checks.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::breakdown {

namespace {

/// Per-trial tallies for the run manifest. Bumped once per Monte Carlo
/// trial (not per saturation step), so the hot path stays untouched.
void count_trial(const SaturationResult& sat) {
  static const obs::Counter trials("breakdown.trials");
  static const obs::Counter degenerate("breakdown.degenerate_sets");
  static const obs::Counter unbounded("breakdown.unbounded_sets");
  trials.add();
  if (sat.degenerate_zero) {
    degenerate.add();
  } else if (!sat.found) {
    unbounded.add();
  }
}

// Classify one saturated draw into the estimate.
void accumulate_trial(const SaturationResult& sat, bool keep_samples,
                      BreakdownEstimate& est) {
  if (sat.degenerate_zero) {
    ++est.degenerate_sets;
    est.utilization.add(0.0);
    if (keep_samples) est.samples.push_back(0.0);
  } else if (!sat.found) {
    ++est.unbounded_sets;  // pathological; excluded from the average
  } else {
    est.utilization.add(sat.breakdown_utilization);
    if (keep_samples) est.samples.push_back(sat.breakdown_utilization);
  }
}

}  // namespace

double BreakdownEstimate::quantile(double q) const {
  TR_EXPECTS(q >= 0.0 && q <= 1.0);
  TR_EXPECTS_MSG(!samples.empty(),
                 "quantile needs keep_samples and at least one sample");
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void BreakdownEstimate::merge(const BreakdownEstimate& other) {
  utilization.merge(other.utilization);
  degenerate_sets += other.degenerate_sets;
  unbounded_sets += other.unbounded_sets;
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
}

BreakdownEstimate estimate_breakdown_utilization(
    const msg::MessageSetGenerator& generator,
    const ScaleKernelFactory& kernel_factory, BitsPerSecond bw,
    std::uint64_t master_seed, const exec::Executor& executor,
    const MonteCarloOptions& options) {
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(options.num_sets >= 1);
  TR_EXPECTS(options.shard_size >= 1);

  const std::size_t n = options.num_sets;
  const std::size_t shard = options.shard_size;
  const std::size_t num_shards = (n + shard - 1) / shard;

  // Trial i is fully determined by (master_seed, i): its own Rng, its own
  // draw, its own saturation search. Threads only decide *who* computes a
  // shard, never *what* it computes, so the result cannot depend on the
  // executor's jobs count or on scheduling order.
  const auto run_shard = [&](std::size_t s) {
    BreakdownEstimate part;
    const std::size_t lo = s * shard;
    const std::size_t hi = std::min(n, lo + shard);
    for (std::size_t i = lo; i < hi; ++i) {
      Rng rng = exec::make_trial_rng(master_seed, i);
      const msg::MessageSet base = generator.generate(rng);
      const SaturationResult sat = find_saturation_scaled(
          base, kernel_factory(base), bw, options.saturation);
      count_trial(sat);
      accumulate_trial(sat, options.keep_samples, part);
    }
    return part;
  };

  exec::ParallelForOptions pf;
  pf.cancel = options.cancel;
  if (options.progress) {
    pf.progress = [&options, n, shard](std::size_t done_shards, std::size_t) {
      options.progress(std::min(n, done_shards * shard), n);
    };
  }

  // Shards merge left-to-right in trial order; because the shard grid is
  // fixed by shard_size alone, the floating-point merge tree — and hence
  // every output bit — is the same for any jobs count.
  return exec::map_reduce(
      executor, num_shards, BreakdownEstimate{}, run_shard,
      [](BreakdownEstimate acc, BreakdownEstimate part) {
        acc.merge(part);
        return acc;
      },
      pf);
}

}  // namespace tokenring::breakdown
