// Workload `fig1`: the paper's Figure 1 sweep through the stable driver
// entry point experiments::run_fig1, pinned to Fig1Config's defaults except
// for the seed and the job count.
//
// Modes:
//   fig1        set-up, then one round: the sweep at jobs=1, then at
//               jobs=nproc, each timed point by point between host probes.
//   fig1-ref    the sweep at the pinned reference seed (Fig1Config's
//               default), for comparison with recorded rows.
//   fig1-trace  the untraced sweeps once each, then a traced replay that
//               calls the public layer functions one trial at a time and
//               times each call from here (outside-in; src/ is untouched).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "tokenring/breakdown/monte_carlo.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/exec/seed_stream.hpp"
#include "tokenring/experiments/fig1.hpp"

namespace perfbench {

using namespace tokenring;

namespace {

experiments::Fig1Config pinned_config(const Args& args) {
  experiments::Fig1Config config;
  config.seed = args.u64("seed");
  config.sets_per_point = args.u64("sets");
  return config;
}

std::vector<double> flatten(const std::vector<experiments::Fig1Row>& rows) {
  std::vector<double> out;
  for (const auto& r : rows) {
    out.insert(out.end(), {r.bandwidth_mbps, r.ieee8025, r.ieee8025_ci,
                           r.modified8025, r.modified8025_ci, r.fddi,
                           r.fddi_ci});
  }
  return out;
}

/// Bit-for-bit row equality (the determinism contract across --jobs).
bool identical(const std::vector<experiments::Fig1Row>& a,
               const std::vector<experiments::Fig1Row>& b) {
  const auto fa = flatten(a);
  const auto fb = flatten(b);
  return fa.size() == fb.size() &&
         std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(double)) == 0;
}

/// The traced replay against the sweep: bandwidth and PDP columns bit for
/// bit, FDDI columns within the saturation search's relative tolerance of
/// the FDDI mean. The replay bisects with the scalar TTP kernel, so a
/// closed-form TTP criterion in the sweep, which moves TTP estimates
/// inside that tolerance, still matches.
bool replay_matches(const std::vector<experiments::Fig1Row>& sweep,
                    const std::vector<experiments::Fig1Row>& replay) {
  const double tol = breakdown::SaturationOptions{}.relative_tolerance;
  if (sweep.size() != replay.size()) return false;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& a = sweep[i];
    const auto& b = replay[i];
    const double scale = std::max(std::abs(a.fddi), std::abs(b.fddi));
    if (a.bandwidth_mbps != b.bandwidth_mbps || a.ieee8025 != b.ieee8025 ||
        a.ieee8025_ci != b.ieee8025_ci || a.modified8025 != b.modified8025 ||
        a.modified8025_ci != b.modified8025_ci ||
        std::abs(a.fddi - b.fddi) > tol * scale ||
        std::abs(a.fddi_ci - b.fddi_ci) > tol * scale) {
      return false;
    }
  }
  return true;
}

/// The paper's Section 6.2 observations that must hold on every seed.
Line& observations(Line& line, const std::vector<experiments::Fig1Row>& rows) {
  const auto obs = experiments::analyze_fig1(rows);
  const bool ok = obs.pdp_non_monotone && obs.modified_dominates_standard &&
                  obs.fddi_monotone_rising && obs.high_bandwidth_winner == "ttp" &&
                  obs.ttp_crossover_mbps > 0.0;
  return line.flag("observations_ok", ok)
      .flag("pdp_non_monotone", obs.pdp_non_monotone)
      .flag("modified_dominates_standard", obs.modified_dominates_standard)
      .flag("fddi_monotone_rising", obs.fddi_monotone_rising)
      .str("high_bandwidth_winner", obs.high_bandwidth_winner)
      .num("ttp_crossover_mbps", obs.ttp_crossover_mbps);
}

template <typename F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

int round_mode(const Args& args) {
  const std::size_t nproc = args.u64("nproc");
  experiments::Fig1Config serial = pinned_config(args);
  serial.jobs = 1;
  experiments::Fig1Config parallel = serial;
  parallel.jobs = nproc;

  // Set-up: fault in code and allocator arenas with a small serial sweep,
  // so the first timed sweep is not the first call. (Each run_fig1 call
  // starts its own pool, so there is no pool to warm.)
  experiments::Fig1Config warm = serial;
  warm.bandwidths_mbps = {10, 100};
  warm.sets_per_point = 4;
  experiments::run_fig1(warm);
  emit_ready();

  // Each sweep runs one bandwidth point at a time (the points draw their
  // sets independently, so the rows are the sweep's), with a host probe
  // between points.
  const auto sweep = [&](const experiments::Fig1Config& config,
                         std::vector<experiments::Fig1Row>& rows) {
    return probed(config.bandwidths_mbps.size(), config.jobs,
                  [&](std::size_t i) {
                    experiments::Fig1Config point = config;
                    point.bandwidths_mbps = {config.bandwidths_mbps[i]};
                    const auto row = experiments::run_fig1(point);
                    rows.insert(rows.end(), row.begin(), row.end());
                  });
  };
  std::vector<experiments::Fig1Row> rows1, rows_par;
  const Probed wall = sweep(serial, rows1);
  const Probed wall_par = sweep(parallel, rows_par);

  const std::size_t trials =
      serial.bandwidths_mbps.size() * 3 * serial.sets_per_point;
  Line line;
  line.str("event", "round")
      .probed("wall", wall)
      .probed("wall_par", wall_par)
      .u64("trials", trials)
      .u64("jobs", nproc)
      .flag("rows_identical", identical(rows1, rows_par))
      .nums("rows", flatten(rows1));
  observations(line, rows1).num("peak_rss_mb", peak_rss_mb()).emit();
  return 0;
}

int reference_mode(const Args& args) {
  experiments::Fig1Config config;  // every field at its default, seed too
  config.jobs = args.u64("nproc");
  const auto rows = experiments::run_fig1(config);
  Line()
      .str("event", "reference")
      .u64("seed", config.seed)
      .nums("rows", flatten(rows))
      .emit();
  return 0;
}

struct Fig1Trace {
  Layer draw, build, pdp_probe, ttp_probe, search;
  std::uint64_t trials = 0, degenerate = 0, found = 0, predicate_evals = 0;
};

/// One Monte Carlo point replayed trial by trial with the scalar kernel
/// factory, folding trials into shards exactly as the parallel estimator
/// does (breakdown/monte_carlo.cpp), so the estimate must come out
/// bit-identical to the untraced sweep's.
breakdown::BreakdownEstimate replay_point(
    const experiments::PaperSetup& setup,
    const breakdown::ScaleKernelFactory& factory, BitsPerSecond bw,
    std::size_t sets, std::uint64_t seed, Layer& probe, Fig1Trace& trace) {
  const msg::MessageSetGenerator generator(setup.generator_config());
  const breakdown::MonteCarloOptions defaults;
  breakdown::BreakdownEstimate total;
  for (std::size_t lo = 0; lo < sets; lo += defaults.shard_size) {
    breakdown::BreakdownEstimate part;
    const std::size_t hi = std::min(sets, lo + defaults.shard_size);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t t0 = now_ns();
      Rng rng = exec::make_trial_rng(seed, i);
      const msg::MessageSet base = generator.generate(rng);
      const std::uint64_t t1 = now_ns();
      const breakdown::ScaleKernel kernel = factory(base);
      const std::uint64_t t2 = now_ns();
      const breakdown::ScaleKernel timed_kernel = [&kernel,
                                                   &probe](double scale) {
        const std::uint64_t p0 = now_ns();
        const bool verdict = kernel(scale);
        probe.ns += now_ns() - p0;
        ++probe.calls;
        return verdict;
      };
      const breakdown::SaturationResult sat = breakdown::find_saturation_scaled(
          base, timed_kernel, bw, defaults.saturation);
      const std::uint64_t t3 = now_ns();
      trace.draw.ns += t1 - t0;
      ++trace.draw.calls;
      trace.build.ns += t2 - t1;
      ++trace.build.calls;
      trace.search.ns += t3 - t2;
      ++trace.search.calls;
      ++trace.trials;
      trace.predicate_evals += static_cast<std::uint64_t>(sat.predicate_evals);
      // The estimator's per-trial fold (accumulate_trial).
      if (sat.degenerate_zero) {
        ++trace.degenerate;
        ++part.degenerate_sets;
        part.utilization.add(0.0);
      } else if (!sat.found) {
        ++part.unbounded_sets;
      } else {
        ++trace.found;
        part.utilization.add(sat.breakdown_utilization);
      }
    }
    total.merge(part);
  }
  return total;
}

int trace_mode(const Args& args) {
  const std::size_t nproc = args.u64("nproc");
  experiments::Fig1Config config = pinned_config(args);
  config.jobs = 1;
  experiments::Fig1Config parallel = config;
  parallel.jobs = nproc;

  std::vector<experiments::Fig1Row> rows, rows_par;
  const double wall = timed([&] { rows = experiments::run_fig1(config); });
  const double wall_par =
      timed([&] { rows_par = experiments::run_fig1(parallel); });

  const std::uint64_t evals_before = obs_counter("breakdown.predicate_evals");
  Fig1Trace trace;
  std::vector<experiments::Fig1Row> replayed;
  const std::uint64_t t0 = now_ns();
  for (const double bw_mbps : config.bandwidths_mbps) {
    const BitsPerSecond bw = mbps(bw_mbps);
    const auto& setup = config.setup;
    const auto std8025 = replay_point(
        setup,
        setup.pdp_kernel_factory(analysis::PdpVariant::kStandard8025, bw), bw,
        config.sets_per_point, config.seed, trace.pdp_probe, trace);
    const auto mod8025 = replay_point(
        setup,
        setup.pdp_kernel_factory(analysis::PdpVariant::kModified8025, bw), bw,
        config.sets_per_point, config.seed, trace.pdp_probe, trace);
    const auto fddi =
        replay_point(setup, setup.ttp_kernel_factory(bw), bw,
                     config.sets_per_point, config.seed, trace.ttp_probe, trace);
    experiments::Fig1Row row;
    row.bandwidth_mbps = bw_mbps;
    row.ieee8025 = std8025.mean();
    row.ieee8025_ci = std8025.ci95();
    row.modified8025 = mod8025.mean();
    row.modified8025_ci = mod8025.ci95();
    row.fddi = fddi.mean();
    row.fddi_ci = fddi.ci95();
    replayed.push_back(row);
  }
  const double total = static_cast<double>(now_ns() - t0) * 1e-9;
  const std::uint64_t evals_counter =
      obs_counter("breakdown.predicate_evals") - evals_before;

  const double probe_s = trace.pdp_probe.seconds() + trace.ttp_probe.seconds();
  const double search_self = trace.search.seconds() - probe_s;
  const double trials = static_cast<double>(trace.trials);
  Line()
      .str("event", "trace")
      .num("wall_s", wall)
      .num("wall_par_s", wall_par)
      .u64("jobs", nproc)
      .num("total_s", total)
      .num("msg.draw_s", trace.draw.seconds())
      .num("analysis.kernel_build_s", trace.build.seconds())
      .u64("analysis.kernel_builds", trace.build.calls)
      .num("analysis.pdp_probe_s", trace.pdp_probe.seconds())
      .u64("analysis.pdp_probes", trace.pdp_probe.calls)
      .num("analysis.ttp_probe_s", trace.ttp_probe.seconds())
      .u64("analysis.ttp_probes", trace.ttp_probe.calls)
      .num("breakdown.search_s", trace.search.seconds())
      .num("breakdown.search_self_s", search_self)
      .u64("breakdown.trials", trace.trials)
      .u64("breakdown.predicate_evals", trace.predicate_evals)
      .u64("breakdown.predicate_evals_counter", evals_counter)
      .num("breakdown.probes_per_trial",
           static_cast<double>(trace.predicate_evals) / trials)
      .num("breakdown.degenerate_frac",
           static_cast<double>(trace.degenerate) / trials)
      .num("breakdown.useful_frac", static_cast<double>(trace.found) / trials)
      .flag("rows_identical", identical(rows, rows_par))
      .flag("replay_matches", replay_matches(rows, replayed))
      .emit();
  return 0;
}

}  // namespace

int run_fig1_mode(const std::string& mode, const Args& args) {
  if (mode == "fig1") return round_mode(args);
  if (mode == "fig1-ref") return reference_mode(args);
  if (mode == "fig1-trace") return trace_mode(args);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}

}  // namespace perfbench
