// Saturation scaling: find the schedulability boundary along a payload
// direction (paper Section 6.1, "saturated schedulable class").
//
// Given a base message set M and a monotone schedulability kernel
// (schedulable at scale a implies schedulable at every a' < a), the
// critical scale a* = sup { a : kernel(a) } is located by exponential
// bracketing plus bisection. The saturated set a* * M lies on the
// boundary; its utilization is one breakdown-utilization sample.
//
// The search takes the scale factor, not a materialized set: a
// `ScaleKernel` answers "is a * M schedulable?" for the base it was built
// from. Protocol-specific kernels (analysis/kernels.hpp) hoist everything
// scale-invariant — priority order, TTRT selection, per-station visit
// counts, blocking — out of the probe loop, and each must return, for
// every scale, the same verdict as its criterion (pdp_feasible /
// ttp_feasible) on base.scaled(a). The bisection trajectory depends only
// on the verdicts, so that agreement makes every output bit identical to
// a search over scaled copies.

#pragma once

#include <cstdint>
#include <functional>

#include "tokenring/msg/message_set.hpp"

namespace tokenring::breakdown {

/// A schedulability predicate in scale space: kernel(a) answers "is a * M
/// schedulable?" for the base set M it was built from. Must be monotone
/// non-increasing in the scale.
using ScaleKernel = std::function<bool(double)>;

/// Builds a ScaleKernel for one base message set. Factories are shared
/// across Monte Carlo worker threads (one kernel per trial), so they must
/// be const-callable and thread-safe.
using ScaleKernelFactory = std::function<ScaleKernel(const msg::MessageSet&)>;

/// Options for the boundary search.
struct SaturationOptions {
  /// Relative tolerance on the critical scale.
  double relative_tolerance = 1e-6;
  /// Initial scale guess for bracketing.
  double initial_scale = 1.0;
  /// Abort bracketing above this scale (guards against kernels that
  /// never fail, e.g. zero-payload sets).
  double max_scale = 1e12;
};

/// Result of a saturation search.
struct SaturationResult {
  /// True iff a boundary exists: the kernel holds somewhere in (0, max_scale]
  /// and fails at larger scales. False means either the set is
  /// unschedulable even as payloads vanish (degenerate_zero) or never
  /// becomes unschedulable below max_scale.
  bool found = false;
  /// The kernel fails even for the unscaled-to-zero set (fixed overheads
  /// alone exceed capacity): breakdown utilization is 0.
  bool degenerate_zero = false;
  /// The critical scale a* (lower bracket end; the kernel holds here).
  double critical_scale = 0.0;
  /// Utilization of the saturated set at the given bandwidth.
  double breakdown_utilization = 0.0;
  /// How many times the kernel was evaluated (zero check +
  /// bracketing + bisection). Deterministic for a given base set and
  /// options — the probe sequence depends only on the verdicts — so the
  /// aggregate obs counter "breakdown.predicate_evals" is identical for
  /// every --jobs count.
  std::int64_t predicate_evals = 0;
};

/// Locate the critical scale for `base` under `kernel`. `bw` is used only
/// to report utilization. Requires a non-empty base set with at least one
/// positive payload.
SaturationResult find_saturation_scaled(const msg::MessageSet& base,
                                        const ScaleKernel& kernel,
                                        BitsPerSecond bw,
                                        const SaturationOptions& options = {});

}  // namespace tokenring::breakdown
