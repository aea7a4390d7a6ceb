// Time-ordered event queue for the discrete-event simulator.
//
// A binary min-heap of typed events keyed by (time, sequence): ties in time
// fire in insertion order, which keeps simulations deterministic for a
// fixed seed. The TTP token walk and the PDP medium are FrontierSources
// (see simulator.hpp), so the queue holds little beyond releases and
// faults; it stays shallow and a plain heap serves it with no set-up cost.

#pragma once

#include <cstdint>
#include <vector>

#include "tokenring/sim/event.hpp"

namespace tokenring::sim {

/// Min-heap of Events ordered by (at, seq), with exact FIFO tie-breaking.
class EventQueue {
 public:
  /// Enqueue `ev` to fire at absolute time `at`. SIM_CHECK: `at` must be
  /// finite and >= 0, else a PreconditionError naming the event kind is
  /// thrown (a NaN key would silently corrupt the heap order). Fills in
  /// ev.at and ev.seq.
  void push(Seconds at, Event ev);

  /// True iff no events remain.
  bool empty() const { return heap_.empty(); }
  /// Number of pending events.
  std::size_t size() const { return heap_.size(); }
  /// Firing time of the earliest event. Requires non-empty.
  Seconds next_time() const;
  /// Sequence number of the earliest event. Requires non-empty.
  std::uint64_t next_seq() const { return heap_.front().seq; }

  /// Reserve a sequence number for work held outside the heap.
  std::uint64_t take_seq() { return next_seq_++; }

  /// Remove and return the earliest event. Requires non-empty.
  Event pop();

 private:
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tokenring::sim
