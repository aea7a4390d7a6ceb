#include "tokenring/experiments/distribution_study.hpp"

#include "tokenring/obs/span.hpp"

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

const char* to_string(msg::PeriodDistribution dist) {
  switch (dist) {
    case msg::PeriodDistribution::kUniform:
      return "uniform";
    case msg::PeriodDistribution::kLogUniform:
      return "log-uniform";
    case msg::PeriodDistribution::kEqual:
      return "equal";
  }
  return "?";
}

std::vector<DistributionStudyRow> run_distribution_study(
    const DistributionStudyConfig& config) {
  const obs::Span span("experiments/distribution_study");
  TR_EXPECTS(!config.mean_periods_ms.empty());
  TR_EXPECTS(!config.period_ratios.empty());
  TR_EXPECTS(!config.distributions.empty());

  const BitsPerSecond bw = mbps(config.bandwidth_mbps);
  const exec::Executor executor(config.jobs);
  std::vector<DistributionStudyRow> rows;
  for (auto dist : config.distributions) {
    for (double mean_ms : config.mean_periods_ms) {
      for (double ratio : config.period_ratios) {
        PaperSetup setup = config.setup;
        setup.mean_period = milliseconds(mean_ms);
        setup.period_ratio = ratio;
        setup.period_dist = dist;

        DistributionStudyRow row;
        row.mean_period_ms = mean_ms;
        row.period_ratio = ratio;
        row.distribution = to_string(dist);
        row.ieee8025 =
            estimate_point(setup,
                           setup.pdp_kernel_factory(
                               analysis::PdpVariant::kStandard8025, bw),
                           bw, config.sets_per_point, config.seed, executor)
                .mean();
        row.modified8025 =
            estimate_point(setup,
                           setup.pdp_kernel_factory(
                               analysis::PdpVariant::kModified8025, bw),
                           bw, config.sets_per_point, config.seed, executor)
                .mean();
        row.fddi =
            estimate_point(setup, setup.ttp_kernel_factory(bw), bw,
                           config.sets_per_point, config.seed, executor)
                .mean();
        rows.push_back(row);
      }
    }
  }
  return rows;
}

}  // namespace tokenring::experiments
