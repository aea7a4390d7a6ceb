#include "tokenring/experiments/station_count_study.hpp"

#include "tokenring/obs/span.hpp"

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

std::vector<StationCountStudyRow> run_station_count_study(
    const StationCountStudyConfig& config) {
  const obs::Span span("experiments/station_count_study");
  TR_EXPECTS(!config.station_counts.empty());

  const BitsPerSecond bw = mbps(config.bandwidth_mbps);
  const exec::Executor executor(config.jobs);
  std::vector<StationCountStudyRow> rows;
  for (int n : config.station_counts) {
    TR_EXPECTS(n >= 2);
    PaperSetup setup = config.setup;
    setup.num_stations = n;

    StationCountStudyRow row;
    row.stations = n;
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
  return rows;
}

}  // namespace tokenring::experiments
