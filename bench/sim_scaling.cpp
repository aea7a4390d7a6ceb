// Simulator scaling (google-benchmark): cost of driving a large, mostly
// idle ring through the event engine. On a 1024-station ring with a
// handful of synchronous streams, almost every token rotation is pure
// token passing; the frontier walk advances the token lazily and
// fast-forwards whole idle laps in O(1), so the work tracks traffic, not
// ring size.
//
// Two gates; either one failing makes the binary exit 1:
//  * events (deterministic): one run of the sparse scenario per ring size,
//    counted by the sim.events counter. A walk that steps every idle hop
//    executes ~1.67M events at 1024 stations instead of ~470k, so more
//    than kMaxEvents1024 means the idle-lap fast-forward broke.
//  * cost per event (in-run, whenever BM_SimScalingFrontier runs): the
//    scenario's best time over kCostRounds rounds, divided by that event
//    count, must stay flat from 256 to 1024 stations (within
//    kMaxCostGrowth), so per-event cost does not grow with ring size. The
//    rounds alternate the two sizes, so machine speed and load bursts
//    hit both alike.
// BM_SimScalingFrontierLong stretches the horizon 16x to show the
// hibernating engine's cost scales with traffic, not with idle time.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/experiments/setup.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/obs/report.hpp"
#include "tokenring/sim/workload.hpp"

namespace {

using namespace tokenring;

// Ceiling on the events the 2 s sparse scenario may execute at 1024
// stations (~470k with the idle-lap fast-forward, ~1.67M without).
constexpr std::uint64_t kMaxEvents1024 = 600'000;
// Largest allowed growth of ns per executed event from 256 to 1024
// stations.
constexpr double kMaxCostGrowth = 1.5;
// Timed rounds per ring size for the cost gate; the best round counts.
constexpr int kCostRounds = 15;

// A sparse workload: 4 streams on a ring of `n` stations. Periods are
// hundreds of milliseconds against a ~2 ms rotation, so the ring idles
// for dozens of rotations between releases — the regime where a walk
// that steps every hop would pay for idle time.
msg::MessageSet sparse_set(int n) {
  msg::MessageSet set;
  for (int i = 0; i < 4; ++i) {
    set.add({.period = milliseconds(200.0 + 20.0 * i),
             .payload_bits = 4'000.0,
             .station = (i * n) / 4});
  }
  return set;
}

sim::SimConfig scaling_config(int n, double horizon_seconds) {
  experiments::PaperSetup setup;
  setup.num_stations = n;
  auto cfg = sim::make_sim_config(sparse_set(n), setup.ttp_params(), mbps(100));
  cfg.horizon = horizon_seconds;
  // License the idle-lap fast-forward (sim/config.hpp): no async traffic,
  // no per-rotation statistics, no trace.
  cfg.async_model = sim::AsyncModel::kNone;
  cfg.collect_rotation_stats = false;
  return cfg;
}

std::uint64_t sim_events_total() {
  const auto counters = obs::Registry::global().snapshot().counters;
  const auto it = counters.find("sim.events");
  return it == counters.end() ? 0 : it->second;
}

/// Events one 2 s run of the sparse scenario executes on `n` stations.
std::uint64_t sparse_events(int n) {
  const std::uint64_t before = sim_events_total();
  sim::run_simulation(sparse_set(n), scaling_config(n, 2.0));
  return sim_events_total() - before;
}

/// Best wall time [ns] of one 2 s sparse run per ring size, over
/// kCostRounds rounds that alternate the sizes.
std::map<int, double> best_run_ns(const std::vector<int>& sizes) {
  std::map<int, double> best;
  for (int round = 0; round < kCostRounds; ++round) {
    for (const int n : sizes) {
      const auto set = sparse_set(n);
      const auto cfg = scaling_config(n, 2.0);
      const auto start = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(sim::run_simulation(set, cfg));
      const double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (round == 0 || ns < best[n]) best[n] = ns;
    }
  }
  return best;
}

void BM_SimScalingFrontier(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto set = sparse_set(n);
  const auto cfg = scaling_config(n, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(set, cfg));
  }
  state.SetLabel("2 s of ring time per iteration");
}
BENCHMARK(BM_SimScalingFrontier)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_SimScalingFrontierLong(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto set = sparse_set(n);
  const auto cfg = scaling_config(n, 32.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_simulation(set, cfg));
  }
  state.SetLabel("32 s of ring time per iteration");
}
BENCHMARK(BM_SimScalingFrontierLong)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Same reporter arrangement as micro_schedulability: every run lands in
// the manifest's "benchmarks" table; console output is kept in table mode
// and suppressed in csv/json modes.
class ManifestReporter : public benchmark::ConsoleReporter {
 public:
  explicit ManifestReporter(bool quiet)
      : table_({"name", "iterations", "real_time", "cpu_time", "time_unit"}),
        quiet_(quiet) {}

  bool ReportContext(const Context& context) override {
    return quiet_ ? true : ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.benchmark_name().rfind("BM_SimScalingFrontier/", 0) == 0) {
        frontier_ran_ = true;
      }
      table_.add_row({run.benchmark_name(),
                      fmt(static_cast<long long>(run.iterations)),
                      fmt(run.GetAdjustedRealTime(), 1),
                      fmt(run.GetAdjustedCPUTime(), 1),
                      benchmark::GetTimeUnitString(run.time_unit)});
    }
    if (!quiet_) ConsoleReporter::ReportRuns(runs);
  }

  const Table& table() const { return table_; }
  /// True iff a BM_SimScalingFrontier row was reported.
  bool frontier_ran() const { return frontier_ran_; }

 private:
  Table table_;
  bool frontier_ran_ = false;
  bool quiet_;
};

bool is_bool_token(const std::string& s) {
  return s == "true" || s == "false" || s == "1" || s == "0" || s == "yes" ||
         s == "no";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tokenring;
  CliFlags flags;

  std::vector<char*> report_args = {argv[0]};
  std::vector<char*> bench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool ours = arg.rfind("--format", 0) == 0 ||
                      arg.rfind("--out", 0) == 0 ||
                      arg.rfind("--profile", 0) == 0;
    if (!ours) {
      bench_args.push_back(argv[i]);
      continue;
    }
    report_args.push_back(argv[i]);
    if (arg.find('=') == std::string::npos && i + 1 < argc) {
      const std::string next = argv[i + 1];
      const bool take =
          arg.rfind("--profile", 0) == 0 ? is_bool_token(next)
                                         : next.rfind("--", 0) != 0;
      if (take) report_args.push_back(argv[++i]);
    }
  }

  int report_argc = static_cast<int>(report_args.size());
  obs::RunReport report("sim_scaling");
  if (auto rc = obs::bootstrap_run(report, flags, report_argc,
                                   report_args.data(),
                                   {.jobs = false})) {
    return *rc;
  }

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }

  // Deterministic gate first: it needs no timing, so a run that selects
  // no benchmark (--benchmark_filter=^$) checks it alone.
  const std::vector<int> sizes = {256, 1024};
  std::map<int, std::uint64_t> events;
  for (const int n : sizes) events[n] = sparse_events(n);
  bool ok = true;
  if (events[1024] > kMaxEvents1024) {
    std::fprintf(stderr,
                 "sim_scaling: the sparse scenario executed %llu events at "
                 "1024 stations (limit %llu); the idle-lap fast-forward is "
                 "not skipping idle laps\n",
                 static_cast<unsigned long long>(events[1024]),
                 static_cast<unsigned long long>(kMaxEvents1024));
    ok = false;
  }

  ManifestReporter reporter(!report.verbose());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  report.record_table("benchmarks", reporter.table());
  if (report.format() == obs::OutputFormat::kCsv) {
    reporter.table().print_csv(std::cout);
  }

  // In-run gate: ns per executed event, alongside the timed rows.
  if (reporter.frontier_ran()) {
    const auto best = best_run_ns(sizes);
    Table cost({"stations", "events", "best_run_ms", "ns_per_event"});
    std::map<int, double> ns_per_event;
    for (const int n : sizes) {
      ns_per_event[n] = best.at(n) / static_cast<double>(events[n]);
      cost.add_row({std::to_string(n), std::to_string(events[n]),
                    fmt(best.at(n) / 1e6, 2), fmt(ns_per_event[n], 2)});
    }
    report.record_table("engine_cost", cost);
    report.note("\nns per executed event (best of %d rounds):\n", kCostRounds);
    if (report.verbose()) cost.print(std::cout);
    if (ns_per_event[1024] > kMaxCostGrowth * ns_per_event[256]) {
      std::fprintf(stderr,
                   "sim_scaling: %.2f ns per event at 1024 stations is more "
                   "than %.1fx the %.2f ns at 256\n",
                   ns_per_event[1024], kMaxCostGrowth, ns_per_event[256]);
      ok = false;
    }
  }
  const int rc = report.finish();
  return ok ? rc : 1;
}
