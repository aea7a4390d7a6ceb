// Frame-size ablation (paper Section 4.2, "Choice of Frame Size").
//
// The paper describes the PDP frame-size trade-off: small frames give finer
// preemption granularity (better for short-deadline traffic) but pay the
// fixed per-frame overhead more often; and once the frame time drops below
// Theta the extra granularity is pure loss. This study sweeps the frame
// payload size at several bandwidths and reports the breakdown utilization
// per (frame size, bandwidth) cell for both PDP variants.

#pragma once

#include <cstdint>
#include <vector>

#include "tokenring/experiments/setup.hpp"

namespace tokenring::experiments {

struct FrameSizeStudyConfig {
  PaperSetup setup;
  std::vector<double> payload_bytes = {16, 32, 64, 128, 256, 512, 1024, 4096};
  std::vector<double> bandwidths_mbps = {4, 16, 100};
  std::size_t sets_per_point = 60;
  std::uint64_t seed = 11;
  /// Worker threads for the Monte Carlo trials; 0 = hardware concurrency.
  std::size_t jobs = 0;
};

struct FrameSizeStudyRow {
  double payload_bytes = 0.0;
  double bandwidth_mbps = 0.0;
  double ieee8025 = 0.0;
  double modified8025 = 0.0;
};

/// Rows ordered by (bandwidth, payload).
std::vector<FrameSizeStudyRow> run_frame_size_study(
    const FrameSizeStudyConfig& config);

/// For one bandwidth, the payload size maximizing the modified-802.5
/// breakdown utilization. Requires rows from `run_frame_size_study`.
double best_payload_bytes(const std::vector<FrameSizeStudyRow>& rows,
                          double bandwidth_mbps);

}  // namespace tokenring::experiments
