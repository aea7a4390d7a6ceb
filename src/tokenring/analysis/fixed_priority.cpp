#include "tokenring/analysis/fixed_priority.hpp"

#include <algorithm>
#include <cmath>

#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::analysis {

namespace {

// Activations of a period-P stream interfering in [0, t]: the mathematical
// ceil(t/P), which excludes an arrival landing exactly at t. The scheduling
// points are generated as fl(l * P), and that product divided back by P can
// round one ulp *above* l — a plain ceil would then count the arrival at t
// as interference and wrongly reject the point. Snap back whenever the
// previous multiple already reaches t.
double activations(Seconds t, Seconds period) {
  double c = std::ceil(t / period);
  if ((c - 1.0) * period >= t) c -= 1.0;
  return c;
}

// Workload of task i and all higher-priority tasks released in [0, t],
// plus blocking: W_i(t) = B + C'_i + sum_{j<i} C'_j * ceil(t / P_j).
Seconds workload(const std::vector<FpTask>& tasks, std::size_t i,
                 Seconds blocking, Seconds t) {
  Seconds w = blocking + tasks[i].cost;
  for (std::size_t j = 0; j < i; ++j) {
    w += tasks[j].cost * activations(t, tasks[j].period);
  }
  return w;
}

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

bool lsd_point_test(const std::vector<FpTask>& tasks, std::size_t i,
                    Seconds blocking, std::size_t* workload_evals) {
  TR_EXPECTS(i < tasks.size());
  const Seconds d = tasks[i].effective_deadline();
  // Scheduling points { l * P_k : k <= i, l*P_k <= D_i } union { D_i }.
  // (With D_i = P_i the union adds t = P_i via k = i, l = 1 and this is
  // exactly the paper's R_i.) Harmonic periods generate the same t through
  // several (k, l) pairs; sorting and deduplicating evaluates each
  // distinct point once — the workload at a given t does not depend on how
  // the point was generated, so the existential verdict is unchanged.
  std::vector<Seconds> points;
  for (std::size_t k = 0; k <= i; ++k) {
    const auto lmax =
        static_cast<std::int64_t>(std::floor(d / tasks[k].period));
    for (std::int64_t l = 1; l <= lmax; ++l) {
      points.push_back(static_cast<double>(l) * tasks[k].period);
    }
  }
  points.push_back(d);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  std::size_t evals = 0;
  bool ok = false;
  for (const Seconds t : points) {
    ++evals;
    if (workload(tasks, i, blocking, t) <= t) {
      ok = true;
      break;
    }
  }
  if (workload_evals) *workload_evals = evals;
  return ok;
}

FpSetVerdict lsd_point_test_all(const std::vector<FpTask>& tasks,
                                Seconds blocking) {
  validate_sorted_tasks(tasks);
  TR_EXPECTS(blocking >= 0.0);
  FpSetVerdict v;
  v.schedulable = true;
  v.tasks.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const bool ok = lsd_point_test(tasks, i, blocking);
    v.tasks[i].schedulable = ok;
    if (!ok && v.schedulable) {
      v.schedulable = false;
      v.first_failure = i;
    }
  }
  return v;
}

namespace {

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

double liu_layland_bound(std::size_t n) {
  TR_EXPECTS(n >= 1);
  const double nn = static_cast<double>(n);
  return nn * (std::pow(2.0, 1.0 / nn) - 1.0);
}

double hyperbolic_product(const std::vector<FpTask>& tasks) {
  double prod = 1.0;
  for (const auto& t : tasks) {
    TR_EXPECTS(t.period > 0.0);
    prod *= (t.cost / t.period + 1.0);
  }
  return prod;
}

}  // namespace tokenring::analysis
