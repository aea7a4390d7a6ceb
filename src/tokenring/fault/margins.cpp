#include "tokenring/fault/margins.hpp"

#include <cmath>
#include <functional>

#include "tokenring/analysis/fixed_priority.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::fault {

namespace {

/// One bump per margin query (not per binary-search probe), mirroring the
/// per-trial granularity used by the sim and Monte Carlo counters.
void count_margin_query(const FaultMarginReport& report) {
  static const obs::Counter queries("fault.margin_queries");
  static const obs::Counter infeasible("fault.margin_infeasible");
  queries.add();
  if (!report.fault_free_schedulable) infeasible.add();
}

/// Largest k in [0, inf) with test(k) true, given test(0) true and test
/// monotone (true up to some boundary, false after). `hi_bound` is any k
/// known to fail (outages exceeding the longest deadline always do).
int largest_feasible(const std::function<bool(int)>& test, int hi_bound) {
  int lo = 0;        // known feasible
  int hi = hi_bound; // known infeasible
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (test(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// A k past which no criterion can pass: the whole deadline window spent
/// recovering. +2 keeps the search bracket valid even at outage ~ 0 window.
/// Outages too short to count in an int clamp the bracket to
/// kMaxFaultMargin + 1, so the search answers at most kMaxFaultMargin.
int hopeless_faults(const msg::MessageSet& set, Seconds outage) {
  Seconds longest = 0.0;
  for (const auto& s : set.streams()) {
    longest = std::max(longest, s.deadline());
  }
  if (outage <= 0.0) return 2;
  const double faults = std::ceil(longest / outage) + 2.0;
  return faults <= kMaxFaultMargin ? static_cast<int>(faults)
                                   : kMaxFaultMargin + 1;
}

/// PDP probe with the augmented task list and per-fault recovery hoisted
/// out of the margin binary search: only the blocking term depends on k.
bool pdp_probe(const std::vector<analysis::FpTask>& tasks,
               Seconds base_blocking, Seconds recovery_with_repeat,
               int faults_per_period) {
  const Seconds blocking =
      base_blocking +
      static_cast<double>(faults_per_period) * recovery_with_repeat;
  return analysis::rta_feasible(tasks, blocking);
}

/// Scale-invariant per-stream TTP state for the margin search: payload
/// times and deadlines don't change with k, only the debit does.
struct TtpProbeState {
  Seconds available = 0.0;
  Seconds frame_overhead = 0.0;
  Seconds ttrt = 0.0;
  Seconds recovery_with_rotation = 0.0;
  struct Station {
    Seconds deadline = 0.0;
    Seconds payload_time = 0.0;
  };
  std::vector<Station> stations;
};

TtpProbeState make_ttp_probe_state(const msg::MessageSet& set,
                                   const analysis::TtpParams& params,
                                   BitsPerSecond bw, Seconds ttrt,
                                   const FaultBudget& budget) {
  TtpProbeState st;
  st.ttrt = ttrt;
  // Each outage also wastes the rotation in progress when it strikes (the
  // aborted visit plus the fresh ramp-up), so charge one TTRT on top.
  st.recovery_with_rotation =
      ttp_fault_outage(budget.kind, params, bw, ttrt, budget.noise_duration) +
      ttrt;
  st.available = ttrt - analysis::ttp_lambda(params, bw);
  st.frame_overhead = params.frame.overhead_time(bw);
  st.stations.reserve(set.size());
  for (const auto& s : set.streams()) {
    st.stations.push_back({s.deadline(), s.payload_time(bw)});
  }
  return st;
}

bool ttp_probe(const TtpProbeState& st, int faults_per_period) {
  const Seconds debit =
      static_cast<double>(faults_per_period) * st.recovery_with_rotation;
  Seconds allocated = 0.0;
  for (const auto& s : st.stations) {
    const Seconds window = s.deadline - debit;
    if (window <= 0.0) return false;
    const auto q = static_cast<std::int64_t>(std::floor(window / st.ttrt));
    if (q < 2) return false;
    allocated += s.payload_time / static_cast<double>(q - 1) +
                 st.frame_overhead;
    if (allocated > st.available) return false;
  }
  return true;
}

}  // namespace

bool pdp_schedulable_with_faults(const msg::MessageSet& set,
                                 const analysis::PdpParams& params,
                                 BitsPerSecond bw, const FaultBudget& budget,
                                 int faults_per_period) {
  TR_EXPECTS(faults_per_period >= 0);
  TR_EXPECTS(bw > 0.0);
  const auto tasks = analysis::pdp_tasks(set, params, bw);
  // Beyond the recovery outage itself, a fault destroys the frame in
  // flight, whose partial transmission (up to one max frame) is repeated.
  const Seconds recovery =
      pdp_fault_outage(budget.kind, params, bw, budget.noise_duration) +
      params.frame.frame_time(bw);
  return pdp_probe(tasks, analysis::pdp_blocking(params, bw), recovery,
                   faults_per_period);
}

bool ttp_schedulable_with_faults(const msg::MessageSet& set,
                                 const analysis::TtpParams& params,
                                 BitsPerSecond bw, Seconds ttrt,
                                 const FaultBudget& budget,
                                 int faults_per_period) {
  TR_EXPECTS(faults_per_period >= 0);
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(!set.empty());
  if (ttrt <= 0.0) ttrt = analysis::select_ttrt(set, params.ring, bw);
  return ttp_probe(make_ttp_probe_state(set, params, bw, ttrt, budget),
                   faults_per_period);
}

FaultMarginReport pdp_fault_margin(const msg::MessageSet& set,
                                   const analysis::PdpParams& params,
                                   BitsPerSecond bw,
                                   const FaultBudget& budget) {
  FaultMarginReport report;
  report.recovery_per_fault =
      pdp_fault_outage(budget.kind, params, bw, budget.noise_duration);
  // Everything except the blocking term is independent of the fault count,
  // so the augmented task list is built once for the whole binary search
  // instead of once per probe.
  const auto tasks = analysis::pdp_tasks(set, params, bw);
  const Seconds base_blocking = analysis::pdp_blocking(params, bw);
  const Seconds recovery =
      report.recovery_per_fault + params.frame.frame_time(bw);
  report.fault_free_schedulable = pdp_probe(tasks, base_blocking, recovery, 0);
  if (report.fault_free_schedulable) {
    report.margin = largest_feasible(
        [&](int k) { return pdp_probe(tasks, base_blocking, recovery, k); },
        hopeless_faults(set, report.recovery_per_fault));
  }
  count_margin_query(report);
  return report;
}

FaultMarginReport ttp_fault_margin(const msg::MessageSet& set,
                                   const analysis::TtpParams& params,
                                   BitsPerSecond bw, Seconds ttrt,
                                   const FaultBudget& budget) {
  TR_EXPECTS(!set.empty());
  TR_EXPECTS(bw > 0.0);
  if (ttrt <= 0.0) ttrt = analysis::select_ttrt(set, params.ring, bw);
  FaultMarginReport report;
  report.recovery_per_fault =
      ttp_fault_outage(budget.kind, params, bw, ttrt, budget.noise_duration);
  // Payload times, deadlines and the Theorem 5.1 constants are hoisted
  // once; each probe only re-derives the k-dependent visit counts.
  const TtpProbeState state =
      make_ttp_probe_state(set, params, bw, ttrt, budget);
  report.fault_free_schedulable = ttp_probe(state, 0);
  if (report.fault_free_schedulable) {
    report.margin = largest_feasible(
        [&](int k) { return ttp_probe(state, k); },
        hopeless_faults(set, report.recovery_per_fault));
  }
  count_margin_query(report);
  return report;
}

}  // namespace tokenring::fault
