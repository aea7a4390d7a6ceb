#include "tokenring/experiments/fig1.hpp"

#include "tokenring/obs/span.hpp"

#include <algorithm>

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

std::vector<Fig1Row> run_fig1(const Fig1Config& config) {
  const obs::Span span("experiments/fig1");
  TR_EXPECTS(!config.bandwidths_mbps.empty());
  TR_EXPECTS(config.sets_per_point >= 1);
  // One span per bandwidth point and one per protocol estimate, so the
  // profile splits the sweep's time between PDP and TTP.
  static const obs::SpanHandle point_span("experiments/fig1/point");
  static const obs::SpanHandle std8025_span("experiments/fig1/pdp_ieee8025");
  static const obs::SpanHandle mod8025_span(
      "experiments/fig1/pdp_modified8025");
  static const obs::SpanHandle fddi_span("experiments/fig1/ttp_fddi");

  const exec::Executor executor(config.jobs);
  const auto estimate = [&](const obs::SpanHandle& handle,
                            const breakdown::ScaleKernelFactory& factory,
                            BitsPerSecond bw) {
    const obs::Span protocol(handle);
    return estimate_point(config.setup, factory, bw, config.sets_per_point,
                          config.seed, executor);
  };
  std::vector<Fig1Row> rows;
  rows.reserve(config.bandwidths_mbps.size());
  for (double bw_mbps : config.bandwidths_mbps) {
    const obs::Span point(point_span);
    const BitsPerSecond bw = mbps(bw_mbps);
    const auto std8025 = estimate(
        std8025_span,
        config.setup.pdp_kernel_factory(analysis::PdpVariant::kStandard8025,
                                        bw),
        bw);
    const auto mod8025 = estimate(
        mod8025_span,
        config.setup.pdp_kernel_factory(analysis::PdpVariant::kModified8025,
                                        bw),
        bw);
    const auto fddi =
        estimate(fddi_span, config.setup.ttp_kernel_factory(bw), bw);

    Fig1Row row;
    row.bandwidth_mbps = bw_mbps;
    row.ieee8025 = std8025.mean();
    row.ieee8025_ci = std8025.ci95();
    row.modified8025 = mod8025.mean();
    row.modified8025_ci = mod8025.ci95();
    row.fddi = fddi.mean();
    row.fddi_ci = fddi.ci95();
    rows.push_back(row);
  }
  return rows;
}

Fig1Observations analyze_fig1(const std::vector<Fig1Row>& rows) {
  TR_EXPECTS(rows.size() >= 2);

  Fig1Observations obs;
  obs.modified_dominates_standard = true;
  obs.fddi_monotone_rising = true;

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    if (r.modified8025 > obs.pdp_peak_utilization) {
      obs.pdp_peak_utilization = r.modified8025;
      obs.pdp_peak_bandwidth_mbps = r.bandwidth_mbps;
    }
    if (r.modified8025 + 1e-9 < r.ieee8025) {
      obs.modified_dominates_standard = false;
    }
    if (i > 0 && r.fddi + 1e-9 < rows[i - 1].fddi) {
      obs.fddi_monotone_rising = false;
    }
  }
  obs.pdp_non_monotone =
      rows.back().modified8025 < obs.pdp_peak_utilization - 1e-12;

  const auto winner = [](const Fig1Row& r) {
    return r.fddi >= std::max(r.ieee8025, r.modified8025) ? "ttp" : "pdp";
  };
  obs.low_bandwidth_winner = winner(rows.front());
  obs.high_bandwidth_winner = winner(rows.back());

  for (const auto& r : rows) {
    if (r.fddi >= std::max(r.ieee8025, r.modified8025)) {
      // Ignore degenerate ties where every protocol is at ~zero (e.g. the
      // 1 Mbps point, where nothing is schedulable for 100 stations).
      if (r.fddi < 1e-6) continue;
      obs.ttp_crossover_mbps = r.bandwidth_mbps;
      break;
    }
  }
  return obs;
}

}  // namespace tokenring::experiments
