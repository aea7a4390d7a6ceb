// TTRT sensitivity study (paper Section 5.2 claim).
//
// The paper asserts that (a) the timed-token protocol's breakdown
// utilization is sensitive to TTRT, (b) for equal periods P the maximizer
// is near sqrt(Theta*P), and (c) values well below the Johnson limit
// P_min/2 usually win. This study pins TTRT to a grid of fractions of
// P_min/2 and estimates the breakdown utilization at each, flagging the
// empirical maximizer and where the sqrt rule lands.

#pragma once

#include <cstdint>
#include <vector>

#include "tokenring/experiments/setup.hpp"

namespace tokenring::experiments {

struct TtrtStudyConfig {
  PaperSetup setup;
  double bandwidth_mbps = 100.0;
  /// TTRT grid, expressed as fractions of P_min/2 (the largest valid TTRT).
  std::vector<double> ttrt_fractions = {0.02, 0.05, 0.1, 0.2, 0.3,
                                        0.4,  0.5,  0.7, 0.9, 1.0};
  std::size_t sets_per_point = 100;
  std::uint64_t seed = 7;
  /// Worker threads for the Monte Carlo trials; 0 = hardware concurrency.
  std::size_t jobs = 0;
};

struct TtrtStudyRow {
  double fraction = 0.0;
  Seconds ttrt = 0.0;
  double breakdown_mean = 0.0;
  double breakdown_ci = 0.0;
};

struct TtrtStudyResult {
  std::vector<TtrtStudyRow> rows;
  /// TTRT produced by the paper's sqrt(Theta*P_min) bidding rule for the
  /// study's P_min.
  Seconds sqrt_rule_ttrt = 0.0;
  /// Breakdown estimate when each set uses the sqrt rule (per-set TTRT).
  double sqrt_rule_breakdown = 0.0;
  /// Grid row with the highest mean breakdown.
  TtrtStudyRow best_row;
};

TtrtStudyResult run_ttrt_study(const TtrtStudyConfig& config);

}  // namespace tokenring::experiments
