// Figure 1 experiment driver: average breakdown utilization vs. bandwidth
// for the three protocol implementations.
//
// This module computes the data; presentation (table/CSV printing) lives in
// the bench binary. Keeping the driver in the library makes the experiment
// unit-testable with small sample counts.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tokenring/experiments/setup.hpp"

namespace tokenring::experiments {

/// Sweep configuration for the Figure 1 reproduction.
struct Fig1Config {
  PaperSetup setup;
  std::vector<double> bandwidths_mbps = {1,  2,   5,   10,  20,
                                         50, 100, 200, 500, 1000};
  std::size_t sets_per_point = 100;
  std::uint64_t seed = 42;
  /// Worker threads for the Monte Carlo trials; 0 = hardware concurrency,
  /// 1 = inline sequential. The rows are identical for every value.
  std::size_t jobs = 0;
};

/// One bandwidth point: mean breakdown utilization and 95% CI half-width
/// per protocol implementation.
struct Fig1Row {
  double bandwidth_mbps = 0.0;
  double ieee8025 = 0.0;
  double ieee8025_ci = 0.0;
  double modified8025 = 0.0;
  double modified8025_ci = 0.0;
  double fddi = 0.0;
  double fddi_ci = 0.0;
};

/// The paper's qualitative observations, checked mechanically on the rows.
struct Fig1Observations {
  /// Bandwidth at which the modified-802.5 curve peaks [Mbps].
  double pdp_peak_bandwidth_mbps = 0.0;
  double pdp_peak_utilization = 0.0;
  /// True iff the curve falls after its peak (the paper's anomaly).
  bool pdp_non_monotone = false;
  /// True iff modified >= standard at every point.
  bool modified_dominates_standard = false;
  /// True iff the FDDI curve is non-decreasing across the sweep.
  bool fddi_monotone_rising = false;
  /// Winner ("pdp" or "ttp") at the lowest and highest bandwidth points.
  std::string low_bandwidth_winner;
  std::string high_bandwidth_winner;
  /// First bandwidth at which TTP >= both PDP curves; 0 if never.
  double ttp_crossover_mbps = 0.0;
};

/// Run the sweep. Rows come back in the order of `bandwidths_mbps`.
std::vector<Fig1Row> run_fig1(const Fig1Config& config);

/// Derive the headline observations from sweep rows. Requires >= 2 rows.
Fig1Observations analyze_fig1(const std::vector<Fig1Row>& rows);

}  // namespace tokenring::experiments
