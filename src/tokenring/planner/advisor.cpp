#include "tokenring/planner/advisor.hpp"

#include <algorithm>

#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/common/checks.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/fault/margins.hpp"

namespace tokenring::planner {

namespace {

/// Load (relative to each set's own boundary) at which the advisor probes
/// fault resilience. At the boundary itself the margin is 0 by definition;
/// 70% is the load the fault-tolerance experiments use.
constexpr double kResilienceLoad = 0.7;

struct ResilienceSample {
  double pdp = 0.0;
  double fddi = 0.0;
};

/// Mean token-loss resilience margins over `num_sets` sets drawn from
/// per-trial seed streams. Trials map to the executor and their samples
/// fold in trial order, so the means are bit-identical for every jobs
/// count.
ResilienceSample estimate_resilience(const experiments::PaperSetup& setup,
                                     BitsPerSecond bw, std::size_t num_sets,
                                     std::uint64_t seed,
                                     const exec::Executor& executor) {
  const auto pdp_params =
      setup.pdp_params(analysis::PdpVariant::kModified8025);
  const auto ttp_params = setup.ttp_params();
  const auto pdp_kernel =
      setup.pdp_kernel_factory(analysis::PdpVariant::kModified8025, bw);
  const auto ttp_kernel = setup.ttp_kernel_factory(bw);
  const msg::MessageSetGenerator generator(setup.generator_config());
  const auto sample_trial = [&](std::size_t i) {
    Rng rng = exec::make_trial_rng(seed, i);
    const msg::MessageSet base = generator.generate(rng);
    ResilienceSample s{-1.0, -1.0};
    const auto pdp_sat =
        breakdown::find_saturation_scaled(base, pdp_kernel(base), bw);
    if (pdp_sat.found) {
      const auto set = base.scaled(pdp_sat.critical_scale * kResilienceLoad);
      s.pdp = fault::pdp_fault_margin(set, pdp_params, bw).margin;
    }
    const auto ttp_sat =
        breakdown::find_saturation_scaled(base, ttp_kernel(base), bw);
    if (ttp_sat.found) {
      const auto set = base.scaled(ttp_sat.critical_scale * kResilienceLoad);
      s.fddi = fault::ttp_fault_margin(set, ttp_params, bw).margin;
    }
    return s;
  };
  const auto total = exec::map_reduce(
      executor, num_sets, ResilienceSample{}, sample_trial,
      [](ResilienceSample acc, const ResilienceSample& s) {
        acc.pdp += s.pdp;
        acc.fddi += s.fddi;
        return acc;
      });
  const double n = static_cast<double>(num_sets);
  return {total.pdp / n, total.fddi / n};
}

}  // namespace

experiments::PaperSetup TrafficProfile::to_setup() const {
  experiments::PaperSetup setup;
  setup.num_stations = num_stations;
  setup.station_spacing_m = station_spacing_m;
  setup.mean_period = mean_period;
  setup.period_ratio = period_ratio;
  return setup;
}

double Recommendation::estimate(Protocol protocol) const {
  switch (protocol) {
    case Protocol::kIeee8025:
      return ieee8025;
    case Protocol::kModified8025:
      return modified8025;
    case Protocol::kFddi:
      return fddi;
  }
  return 0.0;
}

Recommendation recommend_protocol(const TrafficProfile& profile,
                                  BitsPerSecond bandwidth,
                                  std::size_t num_sets, std::uint64_t seed,
                                  const exec::Executor& executor) {
  TR_EXPECTS(bandwidth > 0.0);
  TR_EXPECTS(num_sets >= 1);

  const auto setup = profile.to_setup();
  const auto estimate = [&](const breakdown::ScaleKernelFactory& factory) {
    return experiments::estimate_point(setup, factory, bandwidth, num_sets,
                                       seed, executor)
        .mean();
  };
  Recommendation rec;
  rec.ieee8025 = estimate(setup.pdp_kernel_factory(
      analysis::PdpVariant::kStandard8025, bandwidth));
  rec.modified8025 = estimate(setup.pdp_kernel_factory(
      analysis::PdpVariant::kModified8025, bandwidth));
  rec.fddi = estimate(setup.ttp_kernel_factory(bandwidth));

  const auto resilience =
      estimate_resilience(setup, bandwidth, num_sets, seed, executor);
  rec.modified8025_resilience = resilience.pdp;
  rec.fddi_resilience = resilience.fddi;

  struct Entry {
    Protocol protocol;
    double value;
  };
  Entry entries[] = {{Protocol::kIeee8025, rec.ieee8025},
                     {Protocol::kModified8025, rec.modified8025},
                     {Protocol::kFddi, rec.fddi}};
  std::sort(std::begin(entries), std::end(entries),
            [](const Entry& a, const Entry& b) { return a.value > b.value; });
  rec.best = entries[0].protocol;
  rec.margin = entries[1].value > 0.0 ? entries[0].value / entries[1].value
                                      : (entries[0].value > 0.0 ? 1e9 : 1.0);
  return rec;
}

Recommendation recommend_protocol(const TrafficProfile& profile,
                                  BitsPerSecond bandwidth,
                                  std::size_t num_sets, std::uint64_t seed) {
  const exec::Executor inline_executor(1);
  return recommend_protocol(profile, bandwidth, num_sets, seed,
                            inline_executor);
}

}  // namespace tokenring::planner
