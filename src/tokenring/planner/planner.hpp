// Online admission control for real-time token rings.
//
// This is the "network designer / runtime manager" face of the paper's
// schedulability criteria: an AdmissionController holds the currently
// guaranteed stream set for one ring and answers, in microseconds (see
// bench/micro_schedulability), whether one more synchronous stream can be
// admitted without endangering existing guarantees. Rejected streams leave
// the accepted set untouched.

#pragma once

#include <optional>
#include <string>

#include "tokenring/msg/message_set.hpp"
#include "tokenring/planner/protocol.hpp"

namespace tokenring::planner {

/// Outcome of an admission attempt.
struct AdmissionDecision {
  bool admitted = false;
  /// Synchronous utilization of the accepted set after the decision.
  double utilization = 0.0;
  /// Human-readable grounds ("schedulable", "station occupied", ...).
  std::string reason;
};

/// Maintains the guaranteed stream set for one ring.
class AdmissionController {
 public:
  explicit AdmissionController(PlannerConfig config);

  const PlannerConfig& config() const { return config_; }
  const msg::MessageSet& admitted() const { return admitted_; }
  /// Synchronous utilization of the accepted set.
  double utilization() const;

  /// Admit `stream` iff the resulting set stays schedulable under the
  /// configured protocol. One stream per station (the paper's model).
  AdmissionDecision try_admit(const msg::SyncStream& stream);

  /// Withdraw the stream at `station`. Returns false if none is admitted
  /// there.
  bool remove(int station);

  /// Is an arbitrary set schedulable under this controller's protocol?
  bool feasible(const msg::MessageSet& set) const;

  /// Largest payload [bits] a new stream with the given period could carry
  /// at `station` while keeping the set schedulable; nullopt if the station
  /// is occupied or even a zero-payload stream does not fit. Binary search
  /// over the (monotone) criterion, `tolerance_bits` wide.
  std::optional<Bits> headroom_bits(Seconds period, int station,
                                    Bits tolerance_bits = 1.0) const;

 private:
  PlannerConfig config_;
  msg::MessageSet admitted_;
};

}  // namespace tokenring::planner
