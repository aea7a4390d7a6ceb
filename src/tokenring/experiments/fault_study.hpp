// Fault-tolerance study: deadline-miss behaviour under injected faults.
//
// The paper's protocols recover from ring disturbances very differently:
// IEEE 802.5 relies on the active monitor (outage ~ one frame slot plus a
// ring purge, i.e. a few Theta), while FDDI detects a lost token through
// TRT expiry with Late_Ct set (up to 2*TTRT) and then runs the claim
// process — an outage on the order of the TTRT, typically orders of
// magnitude longer than Theta. This study scales feasible message sets to
// a fixed fraction of their schedulability boundary, injects faults of
// each requested kind at each requested count (uniformly at random over
// the run, deterministic per trial via seed streams), and reports the
// resulting miss ratio per protocol x kind x count cell. Trials are
// independent and run on an exec::Executor; results are bit-identical for
// any jobs value.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tokenring/experiments/setup.hpp"
#include "tokenring/fault/plan.hpp"

namespace tokenring::experiments {

struct FaultStudyConfig {
  PaperSetup setup;
  double bandwidth_mbps = 100.0;
  /// Fault kinds to sweep. kStationRejoin is not directly injectable here:
  /// rejoins ride along with kStationCrash (every crash in this study is
  /// paired with a rejoin half a downtime later, so the ring reconfigures
  /// twice per crash).
  std::vector<fault::FaultKind> kinds = {fault::FaultKind::kTokenLoss};
  /// Number of faults injected per run (the x-axis).
  std::vector<int> fault_counts = {0, 1, 2, 5, 10};
  /// Noise-burst jam duration (kNoiseBurst plans only).
  Seconds noise_duration = milliseconds(1.0);
  /// Crashed-station downtime as a fraction of the horizon (kStationCrash
  /// plans only); the rejoin lands inside the run.
  double crash_downtime_fraction = 0.1;
  /// Scale relative to each set's schedulability boundary.
  double load_scale = 0.7;
  std::size_t sets_per_point = 5;
  double horizon_periods = 6.0;
  std::uint64_t seed = 41;
  /// Worker threads for the trial sweep; 0 = hardware concurrency.
  std::size_t jobs = 1;

  FaultStudyConfig() { setup.num_stations = 12; }
};

struct FaultStudyRow {
  std::string protocol;  // "modified8025" or "fddi"
  fault::FaultKind kind = fault::FaultKind::kTokenLoss;
  int faults = 0;
  /// Deadline misses / messages released, averaged over the sampled sets.
  double miss_ratio = 0.0;
  /// Fraction of those misses the simulator attributed to a fault outage
  /// window (the rest are congestion misses).
  double attributed_ratio = 0.0;
  /// Mean measured outage per injected fault [s] (0 when faults == 0).
  Seconds outage = 0.0;
};

std::vector<FaultStudyRow> run_fault_study(const FaultStudyConfig& config);

}  // namespace tokenring::experiments
