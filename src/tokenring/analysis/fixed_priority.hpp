// Generic fixed-priority (rate-monotonic) schedulability machinery.
//
// The PDP analysis (paper Theorem 4.1) is the Lehoczky-Sha-Ding exact
// characterization [RTSS'89] applied to augmented message lengths C'_i with
// a blocking term B. The paper prints it as a scheduling-point test
// (minimize the workload ratio over R_i = {l*P_k}); this file implements
// the equivalent fixpoint-iteration formulation (Joseph/Pandya/Audsley
// response-time analysis), which gives the same verdict and runs orders of
// magnitude faster inside Monte Carlo loops:
//
//  * `response_time_analysis` — per-task verdicts and response times (the
//                               report behind `pdp_schedulable`);
//  * `rta_feasible`, `rta_feasible_fast` — boolean verdicts for probes.
//
// The literal scheduling-point test lives in tests/lsd_oracle.hpp, where
// randomized tests assert that it agrees with these.
//
// Inputs are plain vectors sorted by increasing period (rate-monotonic
// priority order, index 0 = highest priority). Deadlines equal periods
// unless a task sets a constrained one.

#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "tokenring/common/units.hpp"

namespace tokenring::analysis {

/// One task/stream as seen by the generic tests.
struct FpTask {
  /// Period [s].
  Seconds period = 0.0;
  /// Worst-case transmission demand per period (the augmented C'_i) [s].
  Seconds cost = 0.0;
  /// Relative deadline [s]; 0 means deadline = period (the paper's model).
  /// Constrained deadlines require tasks sorted deadline-monotonically.
  Seconds deadline = 0.0;

  /// Effective relative deadline.
  Seconds effective_deadline() const {
    return deadline > 0.0 ? deadline : period;
  }
};

/// Result for one task.
struct FpTaskVerdict {
  bool schedulable = false;
  /// Worst-case response time if the RTA converged within the period;
  /// unset when the task is unschedulable (RTA diverged past the deadline).
  std::optional<Seconds> response_time;
};

/// Whole-set verdict.
struct FpSetVerdict {
  bool schedulable = false;
  /// Index of the first (highest-priority) task that failed, if any.
  std::optional<std::size_t> first_failure;
  /// Per-task verdicts, same order as the input.
  std::vector<FpTaskVerdict> tasks;
  /// How many tasks hit the RTA iteration cap (kMaxRtaIterations) instead
  /// of converging or provably missing their deadline. Non-zero means the
  /// "unschedulable" verdicts for those tasks are conservative, not exact;
  /// tools surface this as a warning.
  std::size_t iteration_cap_hits = 0;
};

/// Upper bound on RTA fixpoint iterations. The iteration is monotone
/// non-decreasing and bounded by the deadline when schedulable, so in
/// exact arithmetic it always terminates; the cap only guards against
/// floating-point stalls (e.g. `next` creeping by sub-ulp amounts near the
/// deadline). 10'000 is orders of magnitude above the iteration counts
/// seen in practice (tens at most), so hitting it signals numerical
/// trouble, not a hard problem instance.
inline constexpr int kMaxRtaIterations = 10'000;

/// Why `response_time` returned what it did.
enum class RtaStatus {
  /// Fixpoint reached within the deadline: the returned response time is
  /// exact.
  kConverged,
  /// The iteration crossed the deadline: the task provably misses it.
  kDeadlineExceeded,
  /// kMaxRtaIterations reached without a fixpoint: the task is *treated*
  /// as unschedulable (conservative). Also tallied in the obs counter
  /// "analysis.rta_cap_hits".
  kIterationCapReached,
};

/// Response-time analysis for task `i`:
///   r^{m+1} = B + C'_i + sum_{j<i} ceil(r^m / P_j) * C'_j
/// starting from r^0 = max(B + C'_i, seed), until fixpoint or r > D_i.
/// Returns the response time if schedulable; `status`, when non-null,
/// distinguishes deadline misses from iteration-cap bailouts.
///
/// Warm start (Davis, Zabos and Burns, IEEE TC 2008): a `seed` that is
/// task i's response time on a set with the same periods, deadlines and
/// blocking, and with every cost C'_j (j <= i) no larger than here, lies
/// at or below this set's least fixpoint. Each step is a monotone function
/// of r and of those costs, in floating point too, so the seeded iteration
/// reaches the same value, bit for bit, or crosses the same deadline, in
/// at most as many steps. (Only a run that hits kMaxRtaIterations cold
/// could end differently: converging instead of bailing out.)
///
/// Every fixpoint run, here and in the set-level tests below, is tallied
/// in the obs counters "analysis.rta_calls" and "analysis.rta_iterations"
/// (one registry update per call of a public function, not per step).
std::optional<Seconds> response_time(const std::vector<FpTask>& tasks,
                                     std::size_t i, Seconds blocking,
                                     RtaStatus* status = nullptr,
                                     Seconds seed = 0.0);

/// Boolean RTA over the whole set: every task's cold `response_time`
/// fixpoint in priority order, stopping at the first failure. Same verdict
/// as `response_time_analysis` without building the per-task report.
bool rta_feasible(const std::vector<FpTask>& tasks, Seconds blocking);

/// RTA over the whole set: every task's cold `response_time` fixpoint, with
/// per-task verdicts and response times (exact for this model).
FpSetVerdict response_time_analysis(const std::vector<FpTask>& tasks,
                                    Seconds blocking);

/// Boolean RTA verdict with cheap screens around the exact per-task test:
///  * quick-reject: sum(cost/period) + blocking/P_last > 1 means the
///    lowest-priority task cannot fit (necessary condition, margin-guarded
///    against rounding), so the whole set fails without any iteration;
///  * per-task hyperbolic quick-accept (Bini-Buttazzo with the blocking
///    term folded into the task under test): while every deadline so far
///    is implicit, prod_{j<i}(1+U_j) * (1 + (C_i+B)/P_i) <= 2 proves task
///    i schedulable without running its fixpoint;
///  * failed-task-first: `failed_hint` (in/out, optional) names the task
///    that failed last time; re-testing it first lets the unschedulable
///    side of a bisection exit after one fixpoint run.
/// Tasks that no screen decides get the exact `response_time` fixpoint, so
/// the verdict matches `response_time_analysis` (screens are margin-guarded
/// sufficient/necessary conditions; the differential property test pins
/// the agreement).
///
/// Warm start: `seeds[i]`, for i < seeds.size(), seeds task i's fixpoint
/// as in `response_time` (same validity condition; 0 = no seed).
/// `response_times`, when non-empty (size == tasks.size()), receives on a
/// true return each task's response time where its fixpoint ran and its
/// seed (0 if none) where a screen accepted it; on a false return its
/// contents are unspecified.
bool rta_feasible_fast(const std::vector<FpTask>& tasks, Seconds blocking,
                       std::size_t* failed_hint = nullptr,
                       std::span<const Seconds> seeds = {},
                       std::span<Seconds> response_times = {});

/// Throws PreconditionError unless the tasks are sorted by non-decreasing
/// effective deadline, with positive periods, non-negative costs, and
/// deadlines within periods.
void validate_sorted_tasks(const std::vector<FpTask>& tasks);

}  // namespace tokenring::analysis
