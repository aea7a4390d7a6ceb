#include "tokenring/experiments/deadline_study.hpp"

#include "tokenring/obs/span.hpp"

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

std::vector<DeadlineStudyRow> run_deadline_study(
    const DeadlineStudyConfig& config) {
  const obs::Span span("experiments/deadline_study");
  TR_EXPECTS(!config.deadline_fractions.empty());
  TR_EXPECTS(!config.bandwidths_mbps.empty());

  const exec::Executor executor(config.jobs);
  std::vector<DeadlineStudyRow> rows;
  for (double bw_mbps : config.bandwidths_mbps) {
    const BitsPerSecond bw = mbps(bw_mbps);
    for (double fraction : config.deadline_fractions) {
      TR_EXPECTS(fraction > 0.0 && fraction <= 1.0);
      PaperSetup setup = config.setup;
      setup.deadline_fraction = fraction;

      DeadlineStudyRow row;
      row.bandwidth_mbps = bw_mbps;
      row.deadline_fraction = fraction;
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
      row.fddi = estimate_point(setup, setup.ttp_kernel_factory(bw), bw,
                                config.sets_per_point, config.seed, executor)
                     .mean();
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace tokenring::experiments
