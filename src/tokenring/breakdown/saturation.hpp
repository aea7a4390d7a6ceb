// Saturation scaling: find the schedulability boundary along a payload
// direction (paper Section 6.1, "saturated schedulable class").
//
// Given a base message set M and a monotone schedulability predicate
// (schedulable at scale a implies schedulable at every a' < a), the
// critical scale a* = sup { a : predicate(a * M) } is located by
// exponential bracketing plus bisection. The saturated set a* * M lies on
// the boundary; its utilization is one breakdown-utilization sample.
//
// Two predicate forms are supported:
//  * `SchedulablePredicate` takes a materialized message set. The search
//    scales the base into one reusable `ScaledWorkspace` buffer, so even
//    this form allocates only once per search instead of once per probe.
//  * `ScaleKernel` takes the scale factor directly. Protocol-specific
//    kernels (analysis/kernels.hpp) hoist everything scale-invariant —
//    priority order, TTRT selection, per-station visit counts, blocking —
//    out of the probe loop, which is where the Monte Carlo speedup comes
//    from. A kernel must return, for every scale, the same verdict as the
//    predicate it replaces; the bisection trajectory (and hence every
//    output bit) is then identical between the two forms.

#pragma once

#include <cstdint>
#include <functional>

#include "tokenring/msg/message_set.hpp"

namespace tokenring::breakdown {

/// A schedulability predicate over message sets (captures protocol params
/// and bandwidth). Must be monotone non-increasing in uniform payload
/// scaling.
using SchedulablePredicate = std::function<bool(const msg::MessageSet&)>;

/// A schedulability predicate in scale space: kernel(a) answers "is a * M
/// schedulable?" for the base set M it was built from. Same monotonicity
/// requirement as SchedulablePredicate.
using ScaleKernel = std::function<bool(double)>;

/// Builds a ScaleKernel for one base message set. Factories are shared
/// across Monte Carlo worker threads (one kernel per trial), so they must
/// be const-callable and thread-safe.
using ScaleKernelFactory = std::function<ScaleKernel(const msg::MessageSet&)>;

/// Reusable buffer for repeated payload scalings of one (or many) base
/// sets: `at_scale` overwrites the internal set in place, so a bracketing
/// + bisection search touches the allocator once instead of once per probe.
class ScaledWorkspace {
 public:
  /// Scaled copy of `base`, valid until the next at_scale call. Values are
  /// bit-identical to `base.scaled(factor)`.
  const msg::MessageSet& at_scale(const msg::MessageSet& base, double factor) {
    base.scaled_into(factor, buffer_);
    return buffer_;
  }

 private:
  msg::MessageSet buffer_;
};

/// Wrap a message-set predicate as a ScaleKernel over `base`, probing
/// through `workspace`. Both referents must outlive the kernel.
ScaleKernel kernel_over_workspace(const msg::MessageSet& base,
                                  const SchedulablePredicate& predicate,
                                  ScaledWorkspace& workspace);

/// Options for the boundary search.
struct SaturationOptions {
  /// Relative tolerance on the critical scale.
  double relative_tolerance = 1e-6;
  /// Initial scale guess for bracketing.
  double initial_scale = 1.0;
  /// Abort bracketing above this scale (guards against predicates that
  /// never fail, e.g. zero-payload sets).
  double max_scale = 1e12;
};

/// Result of a saturation search.
struct SaturationResult {
  /// True iff a boundary exists: predicate holds somewhere in (0, max_scale]
  /// and fails at larger scales. False means either the set is
  /// unschedulable even as payloads vanish (degenerate_zero) or never
  /// becomes unschedulable below max_scale.
  bool found = false;
  /// Predicate fails even for the unscaled-to-zero set (fixed overheads
  /// alone exceed capacity): breakdown utilization is 0.
  bool degenerate_zero = false;
  /// The critical scale a* (lower bracket end; predicate holds here).
  double critical_scale = 0.0;
  /// Utilization of the saturated set at the given bandwidth.
  double breakdown_utilization = 0.0;
  /// How many times the predicate/kernel was evaluated (zero check +
  /// bracketing + bisection). Deterministic for a given base set and
  /// options — the probe sequence depends only on the verdicts — so the
  /// aggregate obs counter "breakdown.predicate_evals" is identical for
  /// every --jobs count.
  std::int64_t predicate_evals = 0;
};

/// Locate the critical scale for `base` under `kernel` (the scale-space
/// core; the predicate overload delegates here). `bw` is used only to
/// report utilization. Requires a non-empty base set with at least one
/// positive payload.
SaturationResult find_saturation_scaled(const msg::MessageSet& base,
                                        const ScaleKernel& kernel,
                                        BitsPerSecond bw,
                                        const SaturationOptions& options = {});

/// Locate the critical scale for `base` under `predicate`. Identical
/// results to find_saturation_scaled with an equivalent kernel.
SaturationResult find_saturation(const msg::MessageSet& base,
                                 const SchedulablePredicate& predicate,
                                 BitsPerSecond bw,
                                 const SaturationOptions& options = {});

}  // namespace tokenring::breakdown
