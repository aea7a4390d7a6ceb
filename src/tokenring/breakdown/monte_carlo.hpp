// Monte Carlo estimation of the average breakdown utilization (paper
// Section 6.1).
//
// Average breakdown utilization = expected utilization of message sets in
// the saturated schedulable class. Estimated by repeatedly (1) drawing a
// random set (periods + payload direction) from a generator, (2) scaling
// payloads to the schedulability boundary, (3) recording the saturated
// utilization, then averaging. Degenerate draws whose breakdown is exactly
// zero (fixed overheads alone exceed capacity) count as samples of 0, so
// low-bandwidth regimes are reported honestly rather than skipped.
//
// Trials are independent: trial i draws from its own SplitMix64-derived
// stream (exec/seed_stream.hpp), builds one ScaleKernel for its set and
// bisects in scale space. Trials run on an `exec::Executor` in fixed-size
// shards merged in trial order, so the result is bit-identical for any
// jobs count, including the inline jobs == 1 path.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/stats.hpp"
#include "tokenring/exec/executor.hpp"
#include "tokenring/msg/generator.hpp"

namespace tokenring::breakdown {

/// Estimation settings.
struct MonteCarloOptions {
  /// Number of random message sets to saturate.
  std::size_t num_sets = 100;
  /// Keep every per-set breakdown sample (for percentile profiles).
  bool keep_samples = false;
  /// Boundary-search options shared by all samples.
  SaturationOptions saturation;
  /// Trials per work shard (>= 1). Part of the result's definition, NOT a
  /// tuning knob tied to the worker count: shard boundaries fix the merge
  /// tree, so two runs agree bit-for-bit only if they use the same
  /// shard_size. The default balances scheduling overhead against load
  /// balance for typical trial costs.
  std::size_t shard_size = 8;
  /// Optional progress hook, called as (trials_done_upper_bound, num_sets)
  /// whenever a shard completes.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Optional cooperative cancellation; when the token fires the estimator
  /// throws `exec::Cancelled`.
  std::optional<exec::CancellationToken> cancel;
};

/// Aggregate result.
struct BreakdownEstimate {
  /// Statistics over per-set breakdown utilizations.
  RunningStats utilization;
  /// How many draws were degenerate (breakdown = 0).
  std::size_t degenerate_sets = 0;
  /// How many draws never became unschedulable within the scale bound
  /// (kernel vacuously true; excluded from `utilization`).
  std::size_t unbounded_sets = 0;
  /// Raw per-set samples; populated only with keep_samples. Ordering
  /// guarantee: samples appear in trial-index order (NOT sorted by value)
  /// for every jobs count — shards are merged in trial order. Unbounded
  /// draws contribute no sample, so samples.size() == utilization.count()
  /// always holds.
  std::vector<double> samples;

  double mean() const { return utilization.mean(); }
  double ci95() const { return utilization.ci95_half_width(); }
  /// Empirical quantile (q in [0,1]) of the kept samples (sorts a copy, so
  /// callers need not pre-sort). Requires keep_samples and >= 1 sample.
  double quantile(double q) const;

  /// Fold `other` (the trials immediately following this shard's) into
  /// this estimate: merges the running stats, adds the degenerate /
  /// unbounded counts, and appends the kept samples, preserving trial
  /// order. The estimator's reducer.
  void merge(const BreakdownEstimate& other);
};

/// Run the estimator on `executor` with deterministic per-trial seed
/// streams derived from (master_seed, trial index). Each trial builds one
/// ScaleKernel for its drawn set (hoisting the scale-invariant work once)
/// and bisects in scale space (saturation.hpp states the monotonicity
/// requirement). The factory is shared across worker threads and must be
/// const-callable and thread-safe. Bit-identical across jobs counts; an
/// Executor with jobs == 1 runs inline with no thread-pool involvement.
BreakdownEstimate estimate_breakdown_utilization(
    const msg::MessageSetGenerator& generator,
    const ScaleKernelFactory& kernel_factory, BitsPerSecond bw,
    std::uint64_t master_seed, const exec::Executor& executor,
    const MonteCarloOptions& options = {});

}  // namespace tokenring::breakdown
