// Period-distribution ablation (the paper reports only mean 100 ms / ratio
// 10 and says "results obtained for other values of these parameters were
// similar"). This study substantiates that claim: it sweeps the mean
// period, the max/min ratio, and the distribution shape, and reports the
// breakdown utilization of all three protocol implementations at a fixed
// bandwidth.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tokenring/experiments/setup.hpp"

namespace tokenring::experiments {

struct DistributionStudyConfig {
  PaperSetup setup;  // mean/ratio/dist fields are overridden per cell
  double bandwidth_mbps = 10.0;
  std::vector<double> mean_periods_ms = {10, 100, 1000};
  std::vector<double> period_ratios = {2, 10, 100};
  std::vector<msg::PeriodDistribution> distributions = {
      msg::PeriodDistribution::kUniform, msg::PeriodDistribution::kLogUniform};
  std::size_t sets_per_point = 60;
  std::uint64_t seed = 13;
  /// Worker threads for the Monte Carlo trials; 0 = hardware concurrency.
  std::size_t jobs = 0;
};

struct DistributionStudyRow {
  double mean_period_ms = 0.0;
  double period_ratio = 0.0;
  std::string distribution;
  double ieee8025 = 0.0;
  double modified8025 = 0.0;
  double fddi = 0.0;
};

const char* to_string(msg::PeriodDistribution dist);

std::vector<DistributionStudyRow> run_distribution_study(
    const DistributionStudyConfig& config);

}  // namespace tokenring::experiments
