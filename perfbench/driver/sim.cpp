// Workload `sim_validate`: the analysis-vs-simulation study through the
// stable entry point experiments::run_sim_validation, on SimValidationConfig
// defaults (12-station rings, default event engine) except for a pinned
// set count and the seed.
//
// Modes:
//   sim        set-up, then one round: the study once on this thread, then
//              the same study `nproc` times at once, one thread each (every
//              copy must reproduce the serial rows); both timed point by
//              point between host probes.
//   sim-trace  the study untraced once, then a traced replay through the
//              public layer functions (generator, scalar kernel factory +
//              find_saturation_scaled, make_simulator, Simulation::run),
//              timed from here.

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/analysis/ttrt.hpp"
#include "tokenring/breakdown/saturation.hpp"
#include "tokenring/experiments/sim_validation_study.hpp"
#include "tokenring/sim/config.hpp"

namespace perfbench {

using namespace tokenring;

namespace {

experiments::SimValidationConfig pinned_config(const Args& args) {
  experiments::SimValidationConfig config;
  config.seed = args.u64("seed");
  config.sets_per_point = args.u64("sets");
  return config;
}

using Rows = std::vector<experiments::SimValidationRow>;

/// Row equality: every count equal, the largest inter-visit ratio within
/// `ratio_tol` relative (0 = bit for bit).
bool rows_match(const Rows& a, const Rows& b, double ratio_tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.protocol != y.protocol || x.bandwidth_mbps != y.bandwidth_mbps ||
        x.sets_tested != y.sets_tested ||
        x.degenerate_skipped != y.degenerate_skipped ||
        x.false_negatives != y.false_negatives ||
        x.outside_clean != y.outside_clean ||
        x.johnson_violations != y.johnson_violations ||
        std::abs(x.max_intervisit_ratio - y.max_intervisit_ratio) >
            ratio_tol *
                std::max(x.max_intervisit_ratio, y.max_intervisit_ratio)) {
      return false;
    }
  }
  return true;
}

/// The traced replay's tolerance on the inter-visit ratio. The replay
/// locates boundaries with the scalar kernel search; a library that finds
/// TTP boundaries in closed form moves them inside the search tolerance,
/// which moves the simulated sets (and the ratio's low digits) by as
/// little.
constexpr double kReplayRatioTol = 1e-3;

/// Soundness gates: no inside-boundary miss, Johnson's bound holds.
std::size_t gate_failures(const Rows& rows) {
  std::size_t bad = 0;
  for (const auto& r : rows) {
    if (r.false_negatives != 0 || r.johnson_violations != 0) ++bad;
  }
  return bad;
}

std::uint64_t simulations(const Rows& rows) {
  std::uint64_t n = 0;
  for (const auto& r : rows) n += 2 * r.sets_tested;
  return n;
}

double max_ratio(const Rows& rows) {
  double m = 0.0;
  for (const auto& r : rows) m = std::max(m, r.max_intervisit_ratio);
  return m;
}

/// The same study `copies` times at once, one thread each; returns the
/// wall time until the last copy finishes.
double run_concurrently(const experiments::SimValidationConfig& config,
                        std::size_t copies, std::vector<Rows>& out) {
  out.assign(copies, {});
  const double t0 = now_s();
  {
    std::vector<std::jthread> workers;
    for (std::size_t k = 0; k < copies; ++k) {
      workers.emplace_back(
          [&, k] { out[k] = experiments::run_sim_validation(config); });
    }
  }
  return now_s() - t0;
}

int round_mode(const Args& args) {
  const std::size_t nproc = args.u64("nproc");
  const experiments::SimValidationConfig config = pinned_config(args);

  // Set-up: one small study faults in the simulator's code and pools.
  experiments::SimValidationConfig warm = config;
  warm.sets_per_point = 1;
  experiments::run_sim_validation(warm);
  emit_ready();

  // Both passes run one bandwidth point at a time (each point draws its
  // own sets, so the rows are the study's), with a host probe between
  // points.
  const std::size_t points = config.bandwidths_mbps.size();
  const auto point = [&config](std::size_t i) {
    experiments::SimValidationConfig c = config;
    c.bandwidths_mbps = {config.bandwidths_mbps[i]};
    return c;
  };
  Rows rows;
  const Probed wall = probed(points, 1, [&](std::size_t i) {
    const Rows r = experiments::run_sim_validation(point(i));
    rows.insert(rows.end(), r.begin(), r.end());
  });
  std::vector<Rows> campaign(nproc);
  const Probed wall_par = probed(points, nproc, [&](std::size_t i) {
    std::vector<Rows> part;
    run_concurrently(point(i), nproc, part);
    for (std::size_t k = 0; k < nproc; ++k) {
      campaign[k].insert(campaign[k].end(), part[k].begin(), part[k].end());
    }
  });
  bool identical = true;
  for (const auto& r : campaign) identical &= rows_match(rows, r, 0.0);

  std::size_t failures = gate_failures(rows);
  std::size_t checked = rows.size();
  std::uint64_t campaign_sims = 0;
  for (const auto& r : campaign) {
    failures += gate_failures(r);
    checked += r.size();
    campaign_sims += simulations(r);
  }
  Line()
      .str("event", "round")
      .probed("wall", wall)
      .probed("wall_par", wall_par)
      .u64("jobs", nproc)
      .u64("campaign_simulations", campaign_sims)
      .u64("rows_checked", checked)
      .u64("gate_failures", failures)
      .flag("rows_identical", identical)
      .num("peak_rss_mb", peak_rss_mb())
      .emit();
  return 0;
}

struct SimTrace {
  Layer draw, search, build, run;
};

/// Time f() into `layer` and return its result.
template <typename F>
auto timed(Layer& layer, F&& f) {
  const std::uint64_t t0 = now_ns();
  auto result = f();
  layer.ns += now_ns() - t0;
  ++layer.calls;
  return result;
}

/// One simulation, built and run as two timed layers.
template <typename OnRun>
sim::SimMetrics simulate(const msg::MessageSet& set, const sim::SimConfig& cfg,
                         SimTrace& trace, OnRun&& on_run) {
  const auto simulator =
      timed(trace.build, [&] { return sim::make_simulator(set, cfg); });
  const sim::SimMetrics metrics =
      timed(trace.run, [&] { return simulator->run(); });
  on_run(*simulator);
  return metrics;
}

/// Draw the point's base sets (one shared stream, as the study does) and
/// locate each boundary with the scalar kernel search.
std::vector<breakdown::SaturationResult> draw_and_search(
    const experiments::SimValidationConfig& config,
    const breakdown::ScaleKernelFactory& factory, BitsPerSecond bw,
    std::vector<msg::MessageSet>& bases, SimTrace& trace) {
  const msg::MessageSetGenerator gen(config.setup.generator_config());
  Rng rng(config.seed);
  for (std::size_t i = 0; i < config.sets_per_point; ++i) {
    bases.push_back(timed(trace.draw, [&] { return gen.generate(rng); }));
  }
  std::vector<breakdown::SaturationResult> sats;
  for (const auto& base : bases) {
    sats.push_back(timed(trace.search, [&] {
      return breakdown::find_saturation_scaled(base, factory(base), bw);
    }));
  }
  return sats;
}

experiments::SimValidationRow replay_pdp(
    const experiments::SimValidationConfig& config,
    analysis::PdpVariant variant, double bw_mbps, SimTrace& trace) {
  const BitsPerSecond bw = mbps(bw_mbps);
  const auto params = config.setup.pdp_params(variant);
  experiments::SimValidationRow row;
  row.protocol = variant == analysis::PdpVariant::kStandard8025
                     ? "ieee8025"
                     : "modified8025";
  row.bandwidth_mbps = bw_mbps;
  std::vector<msg::MessageSet> bases;
  const auto sats = draw_and_search(
      config, config.setup.pdp_kernel_factory(variant, bw), bw, bases, trace);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    if (!sats[i].found) {
      ++row.degenerate_skipped;
      continue;
    }
    ++row.sets_tested;
    sim::SimConfig cfg;
    cfg.protocol = sim::Protocol::kPdp;
    cfg.pdp = params;
    cfg.bandwidth = bw;
    cfg.worst_case_phasing = true;
    cfg.async_model = sim::AsyncModel::kSaturating;
    cfg.seed = config.seed + i;
    const auto inside =
        bases[i].scaled(sats[i].critical_scale * config.inside_scale_pdp);
    cfg.horizon = config.horizon_periods * inside.max_period();
    if (simulate(inside, cfg, trace, [](const sim::Simulation&) {})
            .deadline_misses > 0) {
      ++row.false_negatives;
    }
    const auto outside =
        bases[i].scaled(sats[i].critical_scale * config.outside_scale);
    cfg.horizon = config.horizon_periods * outside.max_period();
    if (simulate(outside, cfg, trace, [](const sim::Simulation&) {})
            .deadline_misses == 0) {
      ++row.outside_clean;
    }
  }
  return row;
}

/// TTP run configuration: paper TTRT rule and local h_i allocation, the
/// way the study builds it.
sim::SimConfig ttp_config(const msg::MessageSet& set,
                          const analysis::TtpParams& params, BitsPerSecond bw,
                          const experiments::SimValidationConfig& config,
                          std::size_t i) {
  sim::SimConfig cfg;
  cfg.protocol = sim::Protocol::kTtp;
  cfg.ttp = params;
  cfg.bandwidth = bw;
  cfg.ttrt = analysis::select_ttrt(set, params.ring, bw);
  cfg.worst_case_phasing = true;
  cfg.async_model = sim::AsyncModel::kSaturating;
  cfg.seed = config.seed + i;
  cfg.horizon = config.horizon_periods * set.max_period();
  for (const auto& s : set.streams()) {
    cfg.sync_bandwidth_per_stream.push_back(
        analysis::ttp_local_bandwidth(s, params, bw, cfg.ttrt).value_or(0.0));
  }
  return cfg;
}

experiments::SimValidationRow replay_ttp(
    const experiments::SimValidationConfig& config, double bw_mbps,
    SimTrace& trace) {
  const BitsPerSecond bw = mbps(bw_mbps);
  const auto params = config.setup.ttp_params();
  experiments::SimValidationRow row;
  row.protocol = "fddi";
  row.bandwidth_mbps = bw_mbps;
  std::vector<msg::MessageSet> bases;
  const auto sats = draw_and_search(
      config, config.setup.ttp_kernel_factory(bw), bw, bases, trace);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    if (!sats[i].found) {
      ++row.degenerate_skipped;
      continue;
    }
    ++row.sets_tested;
    const auto inside =
        bases[i].scaled(sats[i].critical_scale * config.inside_scale_ttp);
    const sim::SimConfig cfg = ttp_config(inside, params, bw, config, i);
    const auto metrics =
        simulate(inside, cfg, trace, [&](const sim::Simulation& s) {
          const double ratio = s.max_intervisit() / cfg.ttrt;
          row.max_intervisit_ratio = std::max(row.max_intervisit_ratio, ratio);
          if (ratio > 2.0 + 1e-9) ++row.johnson_violations;
        });
    if (metrics.deadline_misses > 0) ++row.false_negatives;
    const auto outside =
        bases[i].scaled(sats[i].critical_scale * config.outside_scale);
    if (simulate(outside, ttp_config(outside, params, bw, config, i), trace,
                 [](const sim::Simulation&) {})
            .deadline_misses == 0) {
      ++row.outside_clean;
    }
  }
  return row;
}

int trace_mode(const Args& args) {
  const std::size_t nproc = args.u64("nproc");
  const experiments::SimValidationConfig config = pinned_config(args);
  const double w0 = now_s();
  const Rows rows = experiments::run_sim_validation(config);
  const double wall = now_s() - w0;
  std::vector<Rows> campaign;
  const double wall_par = run_concurrently(config, nproc, campaign);

  const std::uint64_t events_before = obs_counter("sim.events");
  SimTrace trace;
  Rows replayed;
  const std::uint64_t t0 = now_ns();
  for (const double bw : config.bandwidths_mbps) {
    replayed.push_back(
        replay_pdp(config, analysis::PdpVariant::kStandard8025, bw, trace));
    replayed.push_back(
        replay_pdp(config, analysis::PdpVariant::kModified8025, bw, trace));
    replayed.push_back(replay_ttp(config, bw, trace));
  }
  const double total = static_cast<double>(now_ns() - t0) * 1e-9;
  const std::uint64_t events = obs_counter("sim.events") - events_before;

  Line()
      .str("event", "trace")
      .num("wall_s", wall)
      .num("wall_par_s", wall_par)
      .u64("jobs", nproc)
      .num("total_s", total)
      .num("msg.draw_s", trace.draw.seconds())
      .num("breakdown.search_s", trace.search.seconds())
      .u64("breakdown.searches", trace.search.calls)
      .num("sim.build_s", trace.build.seconds())
      .num("sim.run_s", trace.run.seconds())
      .u64("sim.runs", trace.run.calls)
      .u64("sim.events", events)
      .num("sim.events_per_s",
           static_cast<double>(events) / trace.run.seconds())
      .num("sim.max_intervisit_ratio", max_ratio(replayed))
      .u64("rows_checked", rows.size() + replayed.size())
      .u64("gate_failures", gate_failures(rows) + gate_failures(replayed))
      .flag("replay_matches", rows_match(rows, replayed, kReplayRatioTol))
      .emit();
  return 0;
}

}  // namespace

int run_sim_mode(const std::string& mode, const Args& args) {
  if (mode == "sim") return round_mode(args);
  if (mode == "sim-trace") return trace_mode(args);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}

}  // namespace perfbench
