#include "tokenring/breakdown/saturation.hpp"

#include <cmath>

#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::breakdown {

namespace {

/// Utilization of base scaled by `factor`, bit-identical to
/// base.scaled(factor).utilization(bw): same multiply, same divides, same
/// accumulation order — without materializing the scaled set.
double scaled_utilization(const msg::MessageSet& base, double factor,
                          BitsPerSecond bw) {
  double u = 0.0;
  for (const auto& s : base.streams()) {
    const double payload = s.payload_bits * factor;
    u += (payload / bw) / s.period;
  }
  return u;
}

void count_evals(std::int64_t evals) {
  static const obs::Counter probes("breakdown.predicate_evals");
  probes.add(static_cast<std::uint64_t>(evals));
}

}  // namespace

SaturationResult find_saturation_scaled(const msg::MessageSet& base,
                                        const ScaleKernel& kernel,
                                        BitsPerSecond bw,
                                        const SaturationOptions& options) {
  TR_EXPECTS(!base.empty());
  TR_EXPECTS(bw > 0.0);
  TR_EXPECTS(options.relative_tolerance > 0.0);
  TR_EXPECTS(options.initial_scale > 0.0);
  bool has_payload = false;
  for (const auto& s : base.streams()) has_payload |= s.payload_bits > 0.0;
  TR_EXPECTS_MSG(has_payload, "saturation needs a nonzero payload direction");

  SaturationResult res;
  const auto probe = [&](double factor) {
    ++res.predicate_evals;
    return kernel(factor);
  };

  // Degenerate check: if even (near-)zero payloads are unschedulable, the
  // breakdown utilization is 0 (fixed per-stream overheads exceed
  // capacity). Scale 0 keeps the overhead terms that depend on stream
  // existence (e.g. n * F_ovhd in Theorem 5.1) in place.
  if (!probe(0.0)) {
    res.degenerate_zero = true;
    res.found = false;
    count_evals(res.predicate_evals);
    return res;
  }

  // Exponential bracketing: grow/shrink until lo passes and hi fails.
  double lo;
  double hi;
  if (probe(options.initial_scale)) {
    lo = options.initial_scale;
    hi = lo * 2.0;
    while (probe(hi)) {
      lo = hi;
      hi *= 2.0;
      if (hi > options.max_scale) {
        // The kernel never fails within bounds: report the bracket edge.
        res.found = false;
        res.critical_scale = lo;
        res.breakdown_utilization = scaled_utilization(base, lo, bw);
        count_evals(res.predicate_evals);
        return res;
      }
    }
  } else {
    hi = options.initial_scale;
    lo = hi / 2.0;
    while (!probe(lo)) {
      hi = lo;
      lo /= 2.0;
      if (lo < options.initial_scale * 1e-18) {
        // Should have been caught by the zero check; be safe anyway.
        res.degenerate_zero = true;
        res.found = false;
        count_evals(res.predicate_evals);
        return res;
      }
    }
  }

  // Bisection: invariant kernel(lo) && !kernel(hi).
  while ((hi - lo) > options.relative_tolerance * hi) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  res.found = true;
  res.critical_scale = lo;
  res.breakdown_utilization = scaled_utilization(base, lo, bw);
  count_evals(res.predicate_evals);
  return res;
}

}  // namespace tokenring::breakdown
