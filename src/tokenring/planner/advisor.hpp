// Protocol selection advisor — the paper's design-stage use case.
//
// "At the design stage, when faced with a choice between alternative
// protocols, and in the absence of a detailed knowledge of the message
// sets, it is more appropriate to base the selection on the average case
// performance" (Section 2). Given a traffic profile (station count, period
// statistics) and a bandwidth, the advisor estimates the average breakdown
// utilization of all three implementations and recommends the winner with
// its margin.

#pragma once

#include <cstdint>

#include "tokenring/experiments/setup.hpp"
#include "tokenring/planner/protocol.hpp"

namespace tokenring::planner {

/// Traffic profile for the advisor; the subset of PaperSetup a designer
/// would actually know up front.
struct TrafficProfile {
  int num_stations = 100;
  double station_spacing_m = 100.0;
  Seconds mean_period = milliseconds(100);
  double period_ratio = 10.0;

  experiments::PaperSetup to_setup() const;
};

/// Per-protocol estimate and the recommendation.
struct Recommendation {
  Protocol best{};
  double ieee8025 = 0.0;
  double modified8025 = 0.0;
  double fddi = 0.0;
  /// best / second-best mean breakdown utilization (1.0 = dead heat).
  double margin = 1.0;
  /// Mean fault resilience margin (fault/margins.hpp: max token losses per
  /// period the fault-aware criterion still absorbs) with each sampled set
  /// scaled to 70% of its own schedulability boundary. Sets infeasible
  /// even at that load contribute -1, matching FaultMarginReport.
  double modified8025_resilience = 0.0;
  double fddi_resilience = 0.0;

  /// Estimate for one protocol (indexing helper for reports).
  double estimate(Protocol protocol) const;
};

/// Estimate breakdown utilization for each protocol at `bandwidth` via
/// Monte Carlo (`num_sets` random sets, deterministic in `seed`) and pick
/// the winner, running the trials on `executor`. The recommendation is the
/// same for every jobs count.
Recommendation recommend_protocol(const TrafficProfile& profile,
                                  BitsPerSecond bandwidth,
                                  std::size_t num_sets,
                                  std::uint64_t seed,
                                  const exec::Executor& executor);

/// Convenience overload running inline on the calling thread.
Recommendation recommend_protocol(const TrafficProfile& profile,
                                  BitsPerSecond bandwidth,
                                  std::size_t num_sets = 50,
                                  std::uint64_t seed = 1);

}  // namespace tokenring::planner
