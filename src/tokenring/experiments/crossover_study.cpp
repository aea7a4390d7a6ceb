#include "tokenring/experiments/crossover_study.hpp"

#include "tokenring/obs/span.hpp"

#include <cmath>
#include <limits>

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

namespace {

// Does FDDI meaningfully beat modified 802.5 at this bandwidth? A tie at
// ~zero (the degenerate low-bandwidth regime where neither protocol can
// schedule anything) does not count as a win.
bool ttp_wins(const PaperSetup& setup, BitsPerSecond bw, std::size_t sets,
              std::uint64_t seed, const exec::Executor& executor) {
  const double ttp = estimate_point(setup, setup.ttp_kernel_factory(bw),
                                    bw, sets, seed, executor)
                         .mean();
  const double pdp =
      estimate_point(setup,
                     setup.pdp_kernel_factory(
                         analysis::PdpVariant::kModified8025, bw),
                     bw, sets, seed, executor)
          .mean();
  return ttp >= pdp && ttp > 0.01;
}

}  // namespace

std::vector<CrossoverStudyRow> run_crossover_study(
    const CrossoverStudyConfig& config) {
  const obs::Span span("experiments/crossover_study");
  TR_EXPECTS(!config.station_counts.empty());
  TR_EXPECTS(!config.mean_periods_ms.empty());
  TR_EXPECTS(config.bw_low_mbps > 0.0);
  TR_EXPECTS(config.bw_high_mbps > config.bw_low_mbps);
  TR_EXPECTS(config.iterations >= 1);

  const exec::Executor executor(config.jobs);
  std::vector<CrossoverStudyRow> rows;
  for (int n : config.station_counts) {
    for (double mean_ms : config.mean_periods_ms) {
      PaperSetup setup = config.setup;
      setup.num_stations = n;
      setup.mean_period = milliseconds(mean_ms);

      CrossoverStudyRow row;
      row.stations = n;
      row.mean_period_ms = mean_ms;

      const auto wins = [&](double bw_mbps) {
        return ttp_wins(setup, mbps(bw_mbps), config.sets_per_point,
                        config.seed, executor);
      };

      if (wins(config.bw_low_mbps)) {
        row.crossover_mbps = config.bw_low_mbps;
      } else if (!wins(config.bw_high_mbps)) {
        row.crossover_mbps = std::numeric_limits<double>::infinity();
      } else {
        // Bisect in log-bandwidth: TTP gains and PDP loses with bandwidth,
        // so the win predicate flips exactly once in the search interval.
        double lo = std::log(config.bw_low_mbps);
        double hi = std::log(config.bw_high_mbps);
        for (int it = 0; it < config.iterations; ++it) {
          const double mid = 0.5 * (lo + hi);
          (wins(std::exp(mid)) ? hi : lo) = mid;
        }
        row.crossover_mbps = std::exp(hi);
      }

      if (std::isfinite(row.crossover_mbps) && row.crossover_mbps > 0.0) {
        const BitsPerSecond bw = mbps(row.crossover_mbps);
        row.ttp_at_crossover =
            estimate_point(setup, setup.ttp_kernel_factory(bw), bw,
                           config.sets_per_point, config.seed, executor)
                .mean();
        row.pdp_at_crossover =
            estimate_point(setup,
                           setup.pdp_kernel_factory(
                               analysis::PdpVariant::kModified8025, bw),
                           bw, config.sets_per_point, config.seed, executor)
                .mean();
      }
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace tokenring::experiments
