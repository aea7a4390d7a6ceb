// Discrete-event simulation of the priority-driven protocol (IEEE 802.5
// with rate-monotonic priorities) — paper Section 4.1/4.2.
//
// Model:
//  * One frame occupies the medium at a time. A frame's effective medium
//    occupancy is max(frame time, Theta): when the frame is shorter than
//    the ring latency the sender must wait for its header (carrying the
//    reservation field) to return before arbitration can conclude.
//  * Arbitration: when the medium frees, the token goes to the station with
//    the highest-priority pending frame. Reservation collection is modelled
//    as instantaneous at release time (the returned header has circulated
//    the whole ring, so every station has bid); the token then physically
//    walks hop-by-hop from the releasing station to the winner. A winner
//    identical to the releaser costs a full ring rotation, so the average
//    token-circulation cost matches the analysis' Theta/2.
//  * Standard variant: a free token is issued after every frame. Modified
//    variant: the sender keeps transmitting back-to-back frames while it is
//    still the highest-priority active station.
//  * Asynchronous traffic (optional, saturating or Poisson): lowest
//    priority; an async frame wins the token only when no synchronous
//    frame is pending, and once started it blocks later sync arrivals
//    until it completes — the priority-inversion blocking the analysis
//    bounds with B = 2*max(F, Theta).
//  * Deadline-monotonic priorities per *stream* (tighter effective
//    deadline = higher priority; identical to rate-monotonic in the
//    paper's implicit-deadline model). The paper hosts one
//    stream per station; this simulator accepts any number per station —
//    a station always contends with the highest priority among its pending
//    messages, exactly as the reservation field does.
//
// The medium is a FrontierSource: at most one medium action (kickoff, walk,
// frame completion, idle capture, recovery, corruption retry) is pending,
// so it lives in one slot off the event heap, and a fault overwrites it.
// The slot takes its sequence number from the queue when armed, so ties
// with queued releases and faults fire in heap order. An idle ring arms
// nothing (see maybe_capture_idle). Arbitration is the lowest set bit of a
// bitset of pending DM ranks; saturating async traffic with no sync frame
// pending is fast-forwarded in release_medium. DESIGN.md §4i; outputs are
// pinned bit for bit by tests/fixtures/sim/pdp_*.txt.

// The simulator is a validation substrate: message sets accepted by
// Theorem 4.1 must complete every message by its deadline here under
// worst-case phasing and saturating async load.

#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "tokenring/common/rng.hpp"
#include "tokenring/fault/plan.hpp"
#include "tokenring/msg/message_set.hpp"
#include "tokenring/sim/config.hpp"
#include "tokenring/sim/simulator.hpp"

namespace tokenring::sim {

/// One PDP token-ring simulation run over a message set. Built via
/// make_simulator (config.hpp); uses config.pdp, ignores config.ttp/ttrt/
/// sync_bandwidth_per_stream.
class PdpSimulation final : public Simulation,
                            private EventHandler,
                            private FrontierSource {
 public:
  PdpSimulation(msg::MessageSet set, SimConfig config);

  /// Execute the run and return aggregate metrics.
  SimMetrics run() override;

 private:
  struct PendingMessage {
    Seconds arrival = 0.0;
    Bits remaining = 0.0;
  };
  struct LocalStream {
    msg::SyncStream spec;
    int priority = 0;  // global DM rank; smaller = more urgent
    Seconds phase = 0.0;
    std::deque<PendingMessage> queue;
  };
  struct Station {
    std::vector<LocalStream> streams;
    std::int64_t async_pending = 0;  // queued async frames (Poisson model)
    bool alive = true;               // false while crashed (bypassed)
  };

  /// Typed-event dispatch: queued events and medium actions, one switch.
  void on_event(const Event& ev) override;
  /// FrontierSource: the medium slot.
  Seconds frontier_time() const override { return medium_.at; }
  std::uint64_t frontier_seq() const override { return medium_.seq; }
  std::size_t advance_frontier() override;
  /// Arm the medium slot with `ev` at `at`, replacing any pending action.
  void arm_medium(Seconds at, Event ev);

  void schedule_arrival(int station, std::size_t stream_idx, Seconds at);
  void on_arrival(int station, std::size_t stream_idx);
  /// Apply one fault from the plan with the 802.5 recovery model.
  void on_fault(const fault::FaultEvent& event);
  /// Kill the ring for `outage`, then re-arbitrate from the first alive
  /// station (the recovery replaces any in-flight frame or token walk).
  void ring_outage(fault::FaultKind kind, Seconds outage);
  void crash_station(int station);
  void rejoin_station(int station);
  /// Recompute Theta and the hop latency from the alive-station count
  /// (bypassed stations contribute no bit delay).
  void update_ring_timing();
  /// First alive station (recovery token holder); -1 when none remain.
  int first_alive() const;
  void schedule_async_arrival(int station);
  /// A station gained traffic while the ring may be idle: arrange capture.
  void maybe_capture_idle(int station);
  /// Most urgent (lowest) rank with a queued message; -1 if none.
  int lowest_pending_rank() const;
  /// Record whether the stream of `rank` has a queued message.
  void set_pending(int rank, bool pending);
  /// Pick the station whose head frame should transmit next; sync first by
  /// priority, else (per the async model) an async-ready station after
  /// `after`.
  std::optional<int> pick_winner(int after, bool& is_async) const;
  /// Medium became free at `station`; arbitrate and launch the next frame
  /// (fast-forwarding saturating async cycles up to the next queued event).
  void release_medium(int station);
  void start_frame(int station, bool is_async);
  Seconds hops_time(int from, int to) const;

  msg::MessageSet set_;
  SimConfig cfg_;
  Simulator sim_;
  SimMetrics metrics_;
  Rng rng_;
  std::vector<Station> stations_;
  /// Bit r set iff the stream of DM rank r has a queued message; the
  /// station hosting each rank.
  std::vector<std::uint64_t> pending_ranks_;
  std::vector<int> rank_station_;
  /// The pending medium action (at = +infinity when none).
  Event medium_{.at = std::numeric_limits<Seconds>::infinity()};
  /// A frame, walk, capture or recovery is under way; false on an idle
  /// ring, and on a dark one (every station crashed).
  bool medium_busy() const {
    return medium_.at != std::numeric_limits<Seconds>::infinity();
  }
  /// Steps taken by the current frontier advance.
  std::size_t medium_steps_ = 0;
  /// Fault plan expanded once; kFault events carry an index into this.
  std::vector<fault::FaultEvent> fault_events_;
  int active_count_ = 0;
  Seconds theta_ = 0.0;
  Seconds hop_ = 0.0;
  Seconds token_time_ = 0.0;
  /// Station that last started a frame; arbitration restarts from here
  /// after a corrupted frame's wasted slot.
  int medium_station_ = 0;
  /// Ring-dead-until time of the recovery in progress; faults landing
  /// inside it are absorbed (the ring is already down).
  Seconds recovering_until_ = 0.0;
  // Idle-token bookkeeping (only reachable when async is not saturating).
  int idle_position_ = 0;
  Seconds idle_since_ = 0.0;
};

}  // namespace tokenring::sim
