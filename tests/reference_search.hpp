// Reference saturation search for tests: a ScaleKernel that materializes
// base.scaled(a) on every probe and asks a plain criterion on the copy
// (pdp_feasible, ttp_feasible, or any monotone set predicate). It is the
// oracle the protocol scale kernels (analysis/kernels.hpp) must match
// verdict for verdict, and hence search for search, bit for bit.

#pragma once

#include <functional>
#include <utility>

#include "tokenring/breakdown/saturation.hpp"

namespace tokenring::reference {

using Criterion = std::function<bool(const msg::MessageSet&)>;

/// kernel(a) == criterion(base.scaled(a)). Keeps its own copy of `base`.
inline breakdown::ScaleKernel scaled_copy_kernel(const msg::MessageSet& base,
                                                 Criterion criterion) {
  return [base, criterion = std::move(criterion)](double scale) {
    return criterion(base.scaled(scale));
  };
}

/// Factory form of scaled_copy_kernel, for the Monte Carlo estimator.
inline breakdown::ScaleKernelFactory scaled_copy_factory(Criterion criterion) {
  return [criterion = std::move(criterion)](const msg::MessageSet& base) {
    return scaled_copy_kernel(base, criterion);
  };
}

}  // namespace tokenring::reference
