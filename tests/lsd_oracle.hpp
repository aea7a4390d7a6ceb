// The paper's literal Theorem 4.1 for tests: the Lehoczky-Sha-Ding
// scheduling-point test [RTSS'89], exactly as printed (minimize the
// workload ratio over R_i = {l*P_k}). It is the oracle that the
// response-time analysis in analysis/fixed_priority.hpp — the form the
// library runs — must match verdict for verdict. The Liu-Layland and
// hyperbolic bounds are here too: only tests use them.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tokenring/analysis/fixed_priority.hpp"
#include "tokenring/analysis/pdp.hpp"
#include "tokenring/common/checks.hpp"

namespace tokenring::reference {

using analysis::FpSetVerdict;
using analysis::FpTask;

namespace detail {

// Activations of a period-P stream interfering in [0, t]: the mathematical
// ceil(t/P), which excludes an arrival landing exactly at t. The scheduling
// points are generated as fl(l * P), and that product divided back by P can
// round one ulp *above* l — a plain ceil would then count the arrival at t
// as interference and wrongly reject the point. Snap back whenever the
// previous multiple already reaches t.
inline double activations(Seconds t, Seconds period) {
  double c = std::ceil(t / period);
  if ((c - 1.0) * period >= t) c -= 1.0;
  return c;
}

// Workload of task i and all higher-priority tasks released in [0, t],
// plus blocking: W_i(t) = B + C'_i + sum_{j<i} C'_j * ceil(t / P_j).
inline Seconds workload(const std::vector<FpTask>& tasks, std::size_t i,
                        Seconds blocking, Seconds t) {
  Seconds w = blocking + tasks[i].cost;
  for (std::size_t j = 0; j < i; ++j) {
    w += tasks[j].cost * activations(t, tasks[j].period);
  }
  return w;
}

}  // namespace detail

/// Scheduling-point test for task `i` (0-based) in a set sorted by
/// increasing effective deadline: is there a point t in
/// { l*P_k : k <= i, l*P_k <= D_i } union { D_i } with
///   B + C'_i + sum_{j<i} C'_j * ceil(t/P_j)  <=  t ?
/// (With implicit deadlines this is exactly the paper's R_i.) `blocking` is
/// the B term (2*max(F, Theta) for PDP). Harmonic periods generate the same
/// t through several (k, l) pairs; the points are sorted and deduplicated,
/// so each distinct t is evaluated once — the workload at t does not depend
/// on how the point was generated. `workload_evals`, when non-null, is set
/// to the number of workload evaluations (early exit on the first passing
/// point included).
inline bool lsd_point_test(const std::vector<FpTask>& tasks, std::size_t i,
                           Seconds blocking,
                           std::size_t* workload_evals = nullptr) {
  TR_EXPECTS(i < tasks.size());
  const Seconds d = tasks[i].effective_deadline();
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
    if (detail::workload(tasks, i, blocking, t) <= t) {
      ok = true;
      break;
    }
  }
  if (workload_evals) *workload_evals = evals;
  return ok;
}

/// Scheduling-point test over the whole set (every task must pass). Same
/// preconditions as analysis::response_time_analysis.
inline FpSetVerdict lsd_point_test_all(const std::vector<FpTask>& tasks,
                                       Seconds blocking) {
  analysis::validate_sorted_tasks(tasks);
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

/// Theorem 4.1 on a message set through the scheduling-point test: the
/// oracle for analysis::pdp_schedulable.
inline FpSetVerdict pdp_schedulable_lsd(const msg::MessageSet& set,
                                        const analysis::PdpParams& params,
                                        BitsPerSecond bw) {
  params.validate();
  set.validate();
  return lsd_point_test_all(analysis::pdp_tasks(set, params, bw),
                            analysis::pdp_blocking(params, bw));
}

/// Liu-Layland utilization bound n*(2^{1/n} - 1): a *sufficient* condition
/// on sum(cost/period) for schedulability with zero blocking. Requires
/// n >= 1.
inline double liu_layland_bound(std::size_t n) {
  TR_EXPECTS(n >= 1);
  const double nn = static_cast<double>(n);
  return nn * (std::pow(2.0, 1.0 / nn) - 1.0);
}

/// Hyperbolic bound (Bini-Buttazzo): prod(U_i + 1) <= 2 is sufficient with
/// zero blocking. Returns the product for the given tasks.
inline double hyperbolic_product(const std::vector<FpTask>& tasks) {
  double prod = 1.0;
  for (const auto& t : tasks) {
    TR_EXPECTS(t.period > 0.0);
    prod *= (t.cost / t.period + 1.0);
  }
  return prod;
}

}  // namespace tokenring::reference
