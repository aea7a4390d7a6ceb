#include "tokenring/analysis/fixed_priority.hpp"

#include <algorithm>
#include <cmath>

#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::analysis {

namespace {

// Safety margin for the pre-filter screens: the mathematical conditions
// are evaluated in floating point, so a raw comparison could fire inside
// the rounding noise of the exact test it short-circuits. 1e-9 relative is
// ~1e5 times the accumulated rounding of a 100-task sum, and far below any
// slack a real workload exhibits.
constexpr double kFilterMargin = 1e-9;

// Necessary condition (quick-reject): feasibility of the lowest-priority
// task requires r = B + C_n + r * U_{<n} <= D_n <= P_n at some r, which
// rearranges to sum_j U_j + B/P_n <= 1. Utilization beyond that (with
// margin) proves the set infeasible without any fixpoint iteration. Valid
// for constrained deadlines too, since D_n <= P_n only strengthens it.
bool utilization_quick_reject(const std::vector<FpTask>& tasks,
                              Seconds blocking) {
  double u = 0.0;
  for (const auto& t : tasks) u += t.cost / t.period;
  return u + blocking / tasks.back().period > 1.0 + kFilterMargin;
}

// Incremental prefix state for the per-task hyperbolic quick-accept
// (Bini-Buttazzo, extended with the blocking term folded into the task
// under test): while every deadline seen so far is implicit (so deadline
// order == period order == RM order), task i is schedulable if
//   prod_{j<i} (1 + U_j) * (1 + (C_i + B)/P_i) <= 2.
struct HyperbolicScreen {
  double prefix_product = 1.0;  // prod (1 + U_j) over tasks before i
  bool all_implicit = true;

  // Must be called for tasks in order; returns true if task i is proven
  // schedulable. Call advance() afterwards whether or not it fired.
  bool accepts(const FpTask& task, Seconds blocking) const {
    return all_implicit &&
           task.effective_deadline() == task.period &&
           prefix_product * (1.0 + (task.cost + blocking) / task.period) <=
               2.0 * (1.0 - kFilterMargin);
  }

  void advance(const FpTask& task) {
    all_implicit = all_implicit && task.effective_deadline() == task.period;
    prefix_product *= 1.0 + task.cost / task.period;
  }
};

// Fixpoint work done by one caller, counted in locals and added to the obs
// counters once, when the tally goes out of scope: the saturation probe
// loop runs hundreds of thousands of fixpoints, so they cannot afford one
// registry update each. Sums of integers, so the totals are identical for
// every --jobs count.
struct RtaTally {
  std::uint64_t calls = 0;
  std::uint64_t iterations = 0;

  RtaTally() = default;
  RtaTally(const RtaTally&) = delete;
  RtaTally& operator=(const RtaTally&) = delete;
  ~RtaTally() {
    static const obs::Counter rta_calls("analysis.rta_calls");
    static const obs::Counter rta_iterations("analysis.rta_iterations");
    if (calls == 0) return;
    rta_calls.add(calls);
    rta_iterations.add(iterations);
  }
};

// The response-time fixpoint for task i, iterated from max(B + C'_i, seed)
// (see response_time for when a seed is valid).
std::optional<Seconds> fixpoint(const std::vector<FpTask>& tasks,
                                std::size_t i, Seconds blocking, Seconds seed,
                                RtaTally& tally, RtaStatus* status) {
  TR_EXPECTS(i < tasks.size());
  ++tally.calls;
  const Seconds deadline = tasks[i].effective_deadline();
  Seconds r = std::max(blocking + tasks[i].cost, seed);
  if (r > deadline) {
    if (status) *status = RtaStatus::kDeadlineExceeded;
    return std::nullopt;
  }
  for (int iter = 0; iter < kMaxRtaIterations; ++iter) {
    ++tally.iterations;
    Seconds next = blocking + tasks[i].cost;
    for (std::size_t j = 0; j < i; ++j) {
      next += tasks[j].cost * std::ceil(r / tasks[j].period);
    }
    if (next > deadline) {
      if (status) *status = RtaStatus::kDeadlineExceeded;
      return std::nullopt;
    }
    if (next <= r) {  // fixpoint (next == r up to fp noise)
      if (status) *status = RtaStatus::kConverged;
      return next;
    }
    r = next;
  }
  // Iteration cap: treat as unschedulable (conservative) but tell the
  // caller — and the run manifest — that this was a bailout, not a proof.
  static const obs::Counter cap_hits("analysis.rta_cap_hits");
  cap_hits.add();
  if (status) *status = RtaStatus::kIterationCapReached;
  return std::nullopt;
}

}  // namespace

void validate_sorted_tasks(const std::vector<FpTask>& tasks) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    TR_EXPECTS_MSG(tasks[i].period > 0.0, "task period must be positive");
    TR_EXPECTS_MSG(tasks[i].cost >= 0.0, "task cost cannot be negative");
    TR_EXPECTS_MSG(tasks[i].deadline >= 0.0 &&
                       tasks[i].deadline <= tasks[i].period,
                   "constrained deadlines must satisfy 0 < D <= P");
    if (i > 0) {
      TR_EXPECTS_MSG(tasks[i - 1].effective_deadline() <=
                         tasks[i].effective_deadline(),
                     "tasks must be sorted by non-decreasing deadline");
    }
  }
}

std::optional<Seconds> response_time(const std::vector<FpTask>& tasks,
                                     std::size_t i, Seconds blocking,
                                     RtaStatus* status, Seconds seed) {
  RtaTally tally;
  return fixpoint(tasks, i, blocking, seed, tally, status);
}

bool rta_feasible(const std::vector<FpTask>& tasks, Seconds blocking) {
  RtaTally tally;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!fixpoint(tasks, i, blocking, 0.0, tally, nullptr)) return false;
  }
  return true;
}

FpSetVerdict response_time_analysis(const std::vector<FpTask>& tasks,
                                    Seconds blocking) {
  validate_sorted_tasks(tasks);
  TR_EXPECTS(blocking >= 0.0);
  FpSetVerdict v;
  v.schedulable = true;
  v.tasks.resize(tasks.size());
  RtaTally tally;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    RtaStatus status = RtaStatus::kConverged;
    auto r = fixpoint(tasks, i, blocking, 0.0, tally, &status);
    v.tasks[i].schedulable = r.has_value();
    v.tasks[i].response_time = r;
    if (status == RtaStatus::kIterationCapReached) ++v.iteration_cap_hits;
    if (!r && v.schedulable) {
      v.schedulable = false;
      v.first_failure = i;
      // Keep filling per-task verdicts: callers report all failures.
    }
  }
  return v;
}

bool rta_feasible_fast(const std::vector<FpTask>& tasks, Seconds blocking,
                       std::size_t* failed_hint,
                       std::span<const Seconds> seeds,
                       std::span<Seconds> response_times) {
  if (tasks.empty()) return true;
  TR_EXPECTS(seeds.size() <= tasks.size());
  TR_EXPECTS(response_times.empty() || response_times.size() == tasks.size());
  RtaTally tally;
  // Task i's fixpoint, warm-started from seeds[i] when there is one; on
  // convergence the response time is recorded for the caller's next seed.
  const auto schedulable = [&](std::size_t i) {
    const Seconds seed = i < seeds.size() ? seeds[i] : 0.0;
    const auto r = fixpoint(tasks, i, blocking, seed, tally, nullptr);
    if (r && !response_times.empty()) response_times[i] = *r;
    return r.has_value();
  };
  // Tasks that a screen accepts keep the seed they came with.
  for (std::size_t i = 0; i < response_times.size(); ++i) {
    response_times[i] = i < seeds.size() ? seeds[i] : 0.0;
  }
  // Failed-task-first: inside a saturation bisection, the unschedulable
  // side usually fails at the same task as the previous probe; testing it
  // first turns most "false" evaluations into a single fixpoint run.
  const std::size_t hint =
      failed_hint ? *failed_hint : static_cast<std::size_t>(-1);
  if (hint < tasks.size()) {
    if (!schedulable(hint)) return false;
  }
  if (utilization_quick_reject(tasks, blocking)) {
    // The proof names the lowest-priority task as the infeasible one.
    if (failed_hint) *failed_hint = tasks.size() - 1;
    return false;
  }
  HyperbolicScreen screen;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i != hint && !screen.accepts(tasks[i], blocking)) {
      if (!schedulable(i)) {
        if (failed_hint) *failed_hint = i;
        return false;
      }
    }
    screen.advance(tasks[i]);
  }
  return true;
}

}  // namespace tokenring::analysis
