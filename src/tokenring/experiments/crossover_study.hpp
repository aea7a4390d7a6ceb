// Crossover study — the paper's conclusion, quantified.
//
// "We thus conclude that bandwidth ranges for which the respective
// protocols have been found suitable for non-real-time systems are also
// appropriate for real-time applications." The concrete artifact behind
// that sentence is the crossover bandwidth: the link speed above which the
// timed token protocol's average breakdown utilization exceeds the
// priority-driven protocol's. This study locates it by bisection over
// bandwidth for several ring sizes and period scales, showing how the
// protocol recommendation shifts with the deployment.

#pragma once

#include <cstdint>
#include <vector>

#include "tokenring/experiments/setup.hpp"

namespace tokenring::experiments {

struct CrossoverStudyConfig {
  PaperSetup setup;  // num_stations / mean_period overridden per row
  std::vector<int> station_counts = {25, 50, 100};
  std::vector<double> mean_periods_ms = {20, 100, 500};
  /// Bandwidth search interval [Mbps]; the crossover must lie inside.
  double bw_low_mbps = 1.0;
  double bw_high_mbps = 1000.0;
  /// Bisection iterations over bandwidth (the breakdown difference is
  /// noisy, so a fixed budget beats a tolerance).
  int iterations = 12;
  std::size_t sets_per_point = 40;
  std::uint64_t seed = 43;
  /// Worker threads for the Monte Carlo trials; 0 = hardware concurrency.
  std::size_t jobs = 0;
};

struct CrossoverStudyRow {
  int stations = 0;
  double mean_period_ms = 0.0;
  /// Bandwidth where FDDI first beats modified 802.5 [Mbps]; 0 if FDDI
  /// already wins at bw_low, infinity if it never wins by bw_high.
  double crossover_mbps = 0.0;
  /// Breakdown utilizations at the crossover (equal up to Monte Carlo
  /// noise when the crossover is interior).
  double pdp_at_crossover = 0.0;
  double ttp_at_crossover = 0.0;
};

std::vector<CrossoverStudyRow> run_crossover_study(
    const CrossoverStudyConfig& config);

}  // namespace tokenring::experiments
