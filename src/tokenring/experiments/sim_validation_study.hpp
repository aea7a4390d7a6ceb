// Analysis-vs-simulation validation study (the repository's substitute for
// the paper's missing testbed; see DESIGN.md).
//
// For random message sets scaled against each protocol's schedulability
// boundary, the discrete-event simulators check:
//  * soundness: sets inside the boundary meet every deadline under
//    adversarial phasing + saturating asynchronous load;
//  * tightness: sets far outside the boundary do miss;
//  * Johnson's bound: TTP token inter-visit times never exceed 2*TTRT for
//    accepted sets.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tokenring/experiments/setup.hpp"

namespace tokenring::experiments {

struct SimValidationConfig {
  /// Smaller ring than the paper default keeps simulation cost sane.
  PaperSetup setup;
  std::vector<double> bandwidths_mbps = {10, 100};
  std::size_t sets_per_point = 10;
  /// Scale (relative to the saturation boundary) for the "inside" runs.
  double inside_scale_pdp = 0.6;  // Theta/2 in Theorem 4.1 is average-case
  double inside_scale_ttp = 0.99;
  /// Scale for the "outside" runs.
  double outside_scale = 3.0;
  /// Simulation horizon as a multiple of the longest period.
  double horizon_periods = 4.0;
  std::uint64_t seed = 29;

  SimValidationConfig() { setup.num_stations = 12; }
};

struct SimValidationRow {
  std::string protocol;  // "ieee8025", "modified8025", "fddi"
  double bandwidth_mbps = 0.0;
  std::size_t sets_tested = 0;
  std::size_t degenerate_skipped = 0;
  /// Inside-boundary runs with deadline misses: must be 0.
  std::size_t false_negatives = 0;
  /// Outside-boundary runs with no misses (analysis conservative there).
  std::size_t outside_clean = 0;
  /// TTP only: inside-boundary runs violating inter-visit <= 2*TTRT.
  std::size_t johnson_violations = 0;
  /// Largest observed (inter-visit / TTRT) across inside runs (TTP only).
  double max_intervisit_ratio = 0.0;
};

std::vector<SimValidationRow> run_sim_validation(
    const SimValidationConfig& config);

}  // namespace tokenring::experiments
