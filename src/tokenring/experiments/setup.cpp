#include "tokenring/experiments/setup.hpp"

#include <memory>

#include "tokenring/analysis/kernels.hpp"
#include "tokenring/analysis/ttrt.hpp"

namespace tokenring::experiments {

msg::GeneratorConfig PaperSetup::generator_config() const {
  msg::GeneratorConfig g;
  g.num_streams = num_stations;
  g.mean_period = mean_period;
  g.period_ratio = period_ratio;
  g.period_dist = period_dist;
  g.payload_dist = payload_dist;
  g.deadline_fraction = deadline_fraction;
  return g;
}

analysis::PdpParams PaperSetup::pdp_params(analysis::PdpVariant variant) const {
  analysis::PdpParams p;
  p.ring = net::ieee8025_ring(num_stations, station_spacing_m);
  p.frame = net::frame_format_with_payload_bytes(frame_payload_bytes);
  p.variant = variant;
  return p;
}

analysis::TtpParams PaperSetup::ttp_params() const {
  analysis::TtpParams p;
  p.ring = net::fddi_ring(num_stations, station_spacing_m);
  p.frame = net::frame_format_with_payload_bytes(frame_payload_bytes);
  p.async_frame = net::frame_format_with_payload_bytes(frame_payload_bytes);
  return p;
}

breakdown::ScaleKernelFactory PaperSetup::pdp_kernel_factory(
    analysis::PdpVariant variant, BitsPerSecond bw) const {
  return [params = pdp_params(variant), bw](const msg::MessageSet& base) {
    // The kernel carries mutable per-trial state (task buffer, failed-task
    // hint, warm-start seeds), so each trial gets its own heap instance shared into the
    // returned std::function; the factory itself stays const and
    // thread-safe.
    auto kernel = std::make_shared<analysis::PdpScaleKernel>(base, params, bw);
    return breakdown::ScaleKernel(
        [kernel](double scale) { return (*kernel)(scale); });
  };
}

breakdown::ScaleKernelFactory PaperSetup::ttp_kernel_factory(
    BitsPerSecond bw) const {
  return [params = ttp_params(), bw](const msg::MessageSet& base) {
    return breakdown::ScaleKernel(
        analysis::TtpScaleKernel(base, params, bw));
  };
}

breakdown::ScaleKernelFactory PaperSetup::ttp_kernel_factory_at(
    BitsPerSecond bw, Seconds ttrt) const {
  return [params = ttp_params(), bw, ttrt](const msg::MessageSet& base) {
    return breakdown::ScaleKernel(
        analysis::TtpScaleKernel(base, params, bw, ttrt));
  };
}

breakdown::BreakdownEstimate estimate_point(
    const PaperSetup& setup,
    const breakdown::ScaleKernelFactory& kernel_factory, BitsPerSecond bw,
    std::size_t num_sets, std::uint64_t seed, const exec::Executor& executor) {
  msg::MessageSetGenerator generator(setup.generator_config());
  breakdown::MonteCarloOptions options;
  options.num_sets = num_sets;
  return breakdown::estimate_breakdown_utilization(generator, kernel_factory,
                                                   bw, seed, executor, options);
}

}  // namespace tokenring::experiments
