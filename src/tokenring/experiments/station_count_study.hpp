// Station-count ablation: how the protocols scale with ring size.
//
// Growing the ring raises Theta (more latency, longer walk) and multiplies
// the per-rotation overheads (n * F_ovhd in Theorem 5.1; more frames
// contending in Theorem 4.1). The paper fixes n = 100; this study sweeps n
// at fixed bandwidth so the crossover's dependence on ring size is visible.

#pragma once

#include <cstdint>
#include <vector>

#include "tokenring/experiments/setup.hpp"

namespace tokenring::experiments {

struct StationCountStudyConfig {
  PaperSetup setup;  // num_stations is overridden per point
  double bandwidth_mbps = 100.0;
  std::vector<int> station_counts = {10, 25, 50, 100, 150, 200};
  std::size_t sets_per_point = 60;
  std::uint64_t seed = 17;
  /// Worker threads for the Monte Carlo trials; 0 = hardware concurrency.
  std::size_t jobs = 0;
};

struct StationCountStudyRow {
  int stations = 0;
  double ieee8025 = 0.0;
  double modified8025 = 0.0;
  double fddi = 0.0;
};

std::vector<StationCountStudyRow> run_station_count_study(
    const StationCountStudyConfig& config);

}  // namespace tokenring::experiments
