// Metrics collected by the protocol simulators.

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "tokenring/common/stats.hpp"
#include "tokenring/common/units.hpp"
#include "tokenring/fault/plan.hpp"
#include "tokenring/sim/simulator.hpp"

namespace tokenring::sim {

/// Per-station breakdown of a run (keyed by station index in
/// SimMetrics::per_station).
struct StationStats {
  std::size_t released = 0;
  std::size_t completed = 0;
  std::size_t misses = 0;
  RunningStats response_time;
};

/// Per-fault-kind accounting of a run.
struct FaultAccounting {
  /// Faults of this kind injected (including no-ops like corrupting an
  /// idle medium).
  std::size_t injected = 0;
  /// Total medium-dead time charged to this kind [s].
  Seconds outage = 0.0;
  /// Deadline misses whose service window overlapped one of this kind's
  /// outage windows (the most recent overlapping outage claims the miss).
  std::size_t attributed_misses = 0;
};

/// One interval during which the ring was recovering from a fault.
struct OutageWindow {
  Seconds begin = 0.0;
  Seconds end = 0.0;
  fault::FaultKind kind = fault::FaultKind::kTokenLoss;
};

/// Per-run aggregate results shared by the PDP and TTP simulators.
struct SimMetrics {
  /// Synchronous messages whose transmission completed.
  std::size_t messages_completed = 0;
  /// Completed messages that finished after their deadline, plus messages
  /// whose deadline passed while still incomplete at the end of the run.
  std::size_t deadline_misses = 0;
  /// Synchronous messages released during the run.
  std::size_t messages_released = 0;

  /// Response times (arrival -> last bit transmitted) of completed
  /// messages [s].
  RunningStats response_time;
  /// Response time / period of completed messages (1.0 = deadline-exact).
  RunningStats normalized_response;
  /// Token inter-arrival times at station 0 [s] (rotation time).
  RunningStats token_rotation;
  /// Asynchronous frames transmitted (TTP: earliness-funded; PDP:
  /// lowest-priority traffic).
  std::size_t async_frames_sent = 0;
  /// Token losses injected and recovered from (= per_fault token-loss
  /// count; kept as a top-level field because it is the headline fault).
  std::size_t token_losses = 0;
  /// Per-kind fault accounting (only injected kinds appear).
  std::map<fault::FaultKind, FaultAccounting> per_fault;
  /// Recovery intervals, in injection order.
  std::vector<OutageWindow> outages;
  /// Per-station breakdown (only stations carrying a stream appear).
  std::map<int, StationStats> per_station;
  /// Deepest backlog any single stream queue reached during the run.
  std::size_t max_queue_depth = 0;

  /// Record one released message at `station`.
  void on_release(int station);
  /// Record one completion; updates both aggregate and per-station stats.
  /// `arrival` is the message's absolute release time (used to attribute a
  /// late completion to an overlapping fault outage); `deadline` is the
  /// effective relative deadline (miss check); `period` normalizes the
  /// response for reporting.
  void on_completion(int station, Seconds arrival, Seconds response,
                     Seconds period, Seconds deadline, Seconds slack);
  /// Record a miss of a message that never completed (window
  /// [arrival, arrival + deadline] for fault attribution).
  void on_abandoned_miss(int station, Seconds arrival, Seconds deadline);
  /// Record one injected fault whose recovery keeps the ring down over
  /// [begin, end] (begin == end for faults with no outage, e.g. a
  /// corruption hitting an idle medium).
  void on_fault(fault::FaultKind kind, Seconds begin, Seconds end);
  /// Record one stream queue's depth after an enqueue (high watermark).
  void on_queue_depth(std::size_t depth) {
    if (depth > max_queue_depth) max_queue_depth = depth;
  }

  /// Total faults injected across all kinds.
  std::size_t faults_injected() const;
  /// Total medium-dead time across all kinds [s].
  Seconds total_outage() const;
  /// Misses attributed to some fault's recovery window.
  std::size_t fault_attributed_misses() const;

  /// Misses as a fraction of released messages (0 when none released).
  double miss_ratio() const {
    return messages_released == 0
               ? 0.0
               : static_cast<double>(deadline_misses) /
                     static_cast<double>(messages_released);
  }

  /// Multi-line human-readable summary.
  std::string summary() const;

 private:
  /// Attribute one miss with service window [begin, end] to the most
  /// recent overlapping outage, if any.
  void attribute_miss(Seconds begin, Seconds end);
};

/// Fold one finished run into the process-wide obs counters (sim.runs,
/// sim.queue_events + sim.frontier_steps = sim.events, message/rotation/
/// fault tallies, the queue-depth gauge). Both simulators call this exactly
/// once at the end of run(), so instrumentation costs one bump per trial,
/// never per event.
void record_run_observability(const SimMetrics& metrics,
                              const Simulator& engine);

}  // namespace tokenring::sim
