#include "tokenring/experiments/ttrt_study.hpp"

#include "tokenring/obs/span.hpp"

#include <algorithm>
#include <cmath>

#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

TtrtStudyResult run_ttrt_study(const TtrtStudyConfig& config) {
  const obs::Span span("experiments/ttrt_study");
  TR_EXPECTS(!config.ttrt_fractions.empty());
  TR_EXPECTS(config.sets_per_point >= 1);

  const BitsPerSecond bw = mbps(config.bandwidth_mbps);
  const auto gen_config = config.setup.generator_config();
  const Seconds p_min = gen_config.min_period();
  const Seconds max_ttrt = p_min / 2.0;

  const exec::Executor executor(config.jobs);
  TtrtStudyResult result;
  for (double fraction : config.ttrt_fractions) {
    TR_EXPECTS(fraction > 0.0 && fraction <= 1.0);
    const Seconds ttrt = fraction * max_ttrt;
    const auto est = estimate_point(
        config.setup, config.setup.ttp_kernel_factory_at(bw, ttrt), bw,
        config.sets_per_point, config.seed, executor);
    TtrtStudyRow row;
    row.fraction = fraction;
    row.ttrt = ttrt;
    row.breakdown_mean = est.mean();
    row.breakdown_ci = est.ci95();
    result.rows.push_back(row);
  }

  const Seconds theta = config.setup.ttp_params().ring.theta(bw);
  result.sqrt_rule_ttrt = std::min(std::sqrt(theta * p_min), max_ttrt);
  result.sqrt_rule_breakdown =
      estimate_point(config.setup, config.setup.ttp_kernel_factory(bw),
                     bw, config.sets_per_point, config.seed, executor)
          .mean();

  result.best_row = *std::max_element(
      result.rows.begin(), result.rows.end(),
      [](const TtrtStudyRow& a, const TtrtStudyRow& b) {
        return a.breakdown_mean < b.breakdown_mean;
      });
  return result;
}

}  // namespace tokenring::experiments
