// Allocation-free schedulability kernels in scale space.
//
// A saturation search (breakdown/saturation.hpp) probes one base message
// set at ~40-60 scale factors per trial. The plain criteria
// (pdp_feasible, ttp_feasible) re-derive everything from a scaled set: copy the streams, sort
// them, re-select the TTRT, recompute blocking. All of that is invariant
// under uniform payload scaling — periods, deadlines, the priority
// permutation, Theta, frame geometry, TTRT bids, per-station visit counts
// and the blocking term depend only on quantities scaling leaves
// untouched. These kernels hoist the invariant work into construction
// (once per trial) and leave only the genuinely scale-dependent arithmetic
// in operator() — no allocation, no sort, no sqrt in the probe loop.
//
// Contract: kernel(a) returns the same verdict as the criterion it
// replaces evaluated on base.scaled(a), for every a. The scale-dependent
// arithmetic replays the reference implementations operation for
// operation (same multiplies, same divides, same accumulation order), the
// screens in rta_feasible_fast are margin-guarded exact conditions, and
// the PDP kernel's warm-started fixpoints land on the cold ones bit for
// bit, so bisection trajectories — and Monte Carlo breakdown utilizations
// — are bit-identical to a search over scaled copies. The differential
// property tests and the kernel-vs-reference saturation tests
// (tests/reference_search.hpp) pin this.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/msg/message_set.hpp"

namespace tokenring::analysis {

/// Scale-space form of `pdp_feasible`: kernel(a) == pdp_feasible(
/// base.scaled(a), params, bw). Hoists the rate-monotonic sort and the
/// blocking bound; per probe it recomputes the augmented lengths (frame
/// counts depend on the scaled payload) and runs the screened RTA with a
/// failed-task-first hint carried across probes.
///
/// Warm start: the kernel keeps the response times of its last schedulable
/// probe, with the costs they were computed from, and seeds every later
/// probe's fixpoints with them (`rta_feasible_fast`). Response times only
/// rise with the payload scale, so in a saturation search, where each
/// schedulable probe lies above the previous one, most fixpoints start
/// next to their answer. The kernel does not trust the probe order: a seed
/// is used only while every cost up to its task is at least the seeded
/// probe's, which is exactly the condition under which it bounds the new
/// least fixpoint from below. A probe at a lower scale therefore starts
/// cold, and the verdicts equal the cold kernel's for any probe sequence.
/// Only schedulable probes update the seeds.
class PdpScaleKernel {
 public:
  PdpScaleKernel(const msg::MessageSet& base, const PdpParams& params,
                 BitsPerSecond bw);

  bool operator()(double scale) const;

 private:
  PdpParams params_;
  BitsPerSecond bw_ = 0.0;
  Seconds blocking_ = 0.0;
  std::vector<msg::SyncStream> sorted_;  // base streams, deadline order
  mutable std::vector<FpTask> tasks_;    // costs rewritten per probe
  mutable std::size_t failed_hint_ = static_cast<std::size_t>(-1);
  mutable std::vector<Seconds> seeds_;       // R_i of the seeded probe
  mutable std::vector<Seconds> seed_costs_;  // its C'_i; empty = no seeds
  mutable std::vector<Seconds> response_times_;  // this probe's R_i
};

/// Scale-space form of `ttp_feasible` / `ttp_feasible_at`: kernel(a) ==
/// ttp_feasible_at(base.scaled(a), params, bw, ttrt) with the TTRT either
/// pinned or chosen by the paper rule on the base set (the rule reads only
/// periods and deadlines, so it is scale-invariant). Hoists the TTRT
/// selection, Lambda, the per-frame overhead and every per-station visit
/// count; a probe is one multiply-divide-accumulate pass with the same
/// early exits as the reference.
class TtpScaleKernel {
 public:
  /// Paper TTRT selection rule (matches `ttp_feasible`).
  TtpScaleKernel(const msg::MessageSet& base, const TtpParams& params,
                 BitsPerSecond bw);
  /// Pinned TTRT (matches `ttp_feasible_at`).
  TtpScaleKernel(const msg::MessageSet& base, const TtpParams& params,
                 BitsPerSecond bw, Seconds ttrt);

  bool operator()(double scale) const;

 private:
  struct Station {
    double base_payload_bits = 0.0;
    double usable_visits = 0.0;  // q_i - 1 as a double, ready to divide by
  };

  BitsPerSecond bw_ = 0.0;
  Seconds available_ = 0.0;  // TTRT - Lambda
  Seconds frame_overhead_ = 0.0;
  bool any_deadline_infeasible_ = false;  // some q_i < 2: false at any scale
  std::vector<Station> stations_;  // base stream order
};

}  // namespace tokenring::analysis
