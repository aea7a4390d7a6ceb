// Deadline-sensitivity ablation (extension; paper Section 7 context).
//
// The paper argues that at low speeds "the priority inversions caused by
// such a round robin scheduling approach tend to adversely affect the
// messages with short deadlines" — i.e. the timed token suffers most when
// deadlines tighten. This study makes that claim quantitative for the
// constrained-deadline extension (D = fraction * P): breakdown utilization
// per protocol as the deadline fraction shrinks. PDP only re-ranks its
// priorities (deadline-monotonic) and tightens the RTA bound; TTP loses
// quadratically — q_i = floor(D_i/TTRT) shrinks AND the optimal TTRT
// itself must shrink with the deadline window.

#pragma once

#include <cstdint>
#include <vector>

#include "tokenring/experiments/setup.hpp"

namespace tokenring::experiments {

struct DeadlineStudyConfig {
  PaperSetup setup;  // deadline_fraction overridden per row
  std::vector<double> deadline_fractions = {1.0, 0.8, 0.6, 0.4, 0.2};
  std::vector<double> bandwidths_mbps = {10, 100};
  std::size_t sets_per_point = 60;
  std::uint64_t seed = 47;
  /// Worker threads for the Monte Carlo trials; 0 = hardware concurrency.
  std::size_t jobs = 0;
};

struct DeadlineStudyRow {
  double bandwidth_mbps = 0.0;
  double deadline_fraction = 0.0;
  double ieee8025 = 0.0;
  double modified8025 = 0.0;
  double fddi = 0.0;
};

std::vector<DeadlineStudyRow> run_deadline_study(
    const DeadlineStudyConfig& config);

}  // namespace tokenring::experiments
