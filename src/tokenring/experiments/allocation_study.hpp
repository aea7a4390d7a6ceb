// Synchronous-bandwidth allocation scheme comparison (paper Section 5.2)
// and the worst-case 33% guarantee (paper Sections 2 and 5).
//
// Scheme comparison: several allocation rules are evaluated on random
// message sets normalized to exact utilization levels; the figure of merit
// is the fraction of sets each scheme can guarantee at each level. (The
// breakdown-scaling metric is not applicable to every baseline scheme:
// e.g. proportional allocation is not monotone in payload scale.)
//
// Worst-case guarantee: the local scheme guarantees any set with
// U <= (1 - Lambda/TTRT)/3; we verify no sampled set at/below the bound is
// rejected, and report the empirical minimum breakdown utilization, which
// must sit at or above the bound.

#pragma once

#include <cstdint>
#include <vector>

#include "tokenring/analysis/allocation.hpp"
#include "tokenring/experiments/setup.hpp"

namespace tokenring::experiments {

struct AllocationStudyConfig {
  PaperSetup setup;
  double bandwidth_mbps = 100.0;
  std::vector<double> utilization_levels = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5};
  std::size_t sets_per_point = 200;
  std::uint64_t seed = 19;
  /// Worker threads for the per-set feasibility checks; 0 = hardware
  /// concurrency.
  std::size_t jobs = 0;
};

struct AllocationStudyRow {
  analysis::AllocationScheme scheme{};
  double utilization = 0.0;
  /// Fraction of sampled sets this scheme guarantees at this utilization.
  double feasible_fraction = 0.0;
};

std::vector<AllocationStudyRow> run_allocation_study(
    const AllocationStudyConfig& config);

struct WorstCaseStudyConfig {
  PaperSetup setup;
  double bandwidth_mbps = 100.0;
  std::size_t num_sets = 200;
  std::uint64_t seed = 23;
  /// Worker threads for the per-set saturation searches; 0 = hardware
  /// concurrency.
  std::size_t jobs = 0;
};

struct WorstCaseStudyResult {
  /// Analytical bound (1 - Lambda/TTRT)/3 at the sqrt-rule TTRT of the
  /// sampled sets (evaluated per set; this is the sample minimum).
  double analytical_bound = 0.0;
  /// Smallest breakdown utilization across the sampled sets.
  double min_breakdown = 0.0;
  /// Average breakdown utilization (for contrast with the worst case).
  double mean_breakdown = 0.0;
  /// Sets with U at 99.9% of the bound that the criterion rejected
  /// (soundness violations; must be 0).
  std::size_t bound_violations = 0;
};

WorstCaseStudyResult run_worst_case_study(const WorstCaseStudyConfig& config);

}  // namespace tokenring::experiments
