// RunReport: the single output surface for bench binaries and tool
// subcommands.
//
// Usage pattern:
//
//   CliFlags flags;
//   obs::declare_report_flags(flags);   // --format, --out, --profile
//   ... declare study flags, parse ...
//   obs::RunReport report("bench_fig1");
//   if (!report.init(flags)) return 1;  // bad --format value
//   if (report.verbose()) std::printf("banner...\n");
//   ... run study ...
//   report.add_table("fig1", table);
//   if (report.verbose()) std::printf("observations...\n");
//   return report.finish();
//
// Format semantics:
//  * table (default): add_table prints the aligned table followed by the
//    legacy "CSV:" block — byte-for-byte the pre-obs stdout — and verbose()
//    is true so banners/observations still print.
//  * csv: add_table prints only the CSV block (header + rows), nothing else.
//  * json: nothing prints until finish(), which writes the full RunManifest
//    to stdout as pretty JSON.
// Independently of format, --out <path> writes the manifest to a file and
// --profile prints the span-profile report to stderr at finish().

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/table.hpp"
#include "tokenring/obs/manifest.hpp"

namespace tokenring::obs {

enum class OutputFormat { kTable, kCsv, kJson };

/// Declare the shared --format/--out/--profile flags.
void declare_report_flags(CliFlags& flags);

/// Which shared flag families bootstrap_run declares on top of the study
/// flags the caller already declared. On by default: most bench mains
/// sweep Monte Carlo points and take --jobs; the few that manage their own
/// worker counts (parallel_scaling's --jobs-list) turn it off.
struct StandardFlags {
  bool jobs = true;
};

/// One-call bootstrap for a bench/tool main, replacing the
/// declare/parse/init boilerplate every binary used to repeat:
///
///   CliFlags flags;
///   ... declare study flags ...
///   obs::RunReport report("bench_fig1");
///   if (auto rc = obs::bootstrap_run(report, flags, argc, argv)) return *rc;
///
/// Declares --jobs (per `standard`) and --format/--out/--profile,
/// parses argv, and initializes `report`. Returns std::nullopt when the
/// run should proceed; otherwise the process exit code — 0 for an explicit
/// --help, 1 for an unknown/malformed flag or a bad --format value.
class RunReport;
std::optional<int> bootstrap_run(RunReport& report, CliFlags& flags,
                                 int argc, char** argv,
                                 const StandardFlags& standard = {});

class RunReport {
 public:
  explicit RunReport(std::string tool_name);

  /// Read --format/--out/--profile (if declared) plus --seed/--jobs for the
  /// manifest echo. Returns false (with a stderr message) on an unknown
  /// --format value.
  bool init(const CliFlags& flags);

  OutputFormat format() const { return format_; }
  /// True in table mode only: gates human banners and observations.
  bool verbose() const { return format_ == OutputFormat::kTable; }

  void set_seed(std::uint64_t seed) { manifest_.seed = seed; }
  void set_jobs(std::uint64_t jobs) { manifest_.jobs = jobs; }

  /// Record a result table; prints it immediately in table/csv modes.
  void add_table(const std::string& name, const Table& table);

  /// Record a table in the manifest without printing anything — for
  /// binaries that manage their own stdout (parallel_scaling's historical
  /// format, google-benchmark's console output).
  void record_table(const std::string& name, const Table& table) {
    manifest_.add_table(name, table);
  }

  /// printf-style human commentary (banners, observations); emitted to
  /// stdout in table mode, suppressed in csv/json modes.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void note(const char* fmt, ...);

  /// Snapshot metrics, emit the manifest (stdout in json mode, --out file if
  /// requested), print the span profile if --profile. Returns the process
  /// exit code (0, or 1 if the --out file could not be written).
  int finish();

 private:
  RunManifest manifest_;
  OutputFormat format_ = OutputFormat::kTable;
  std::string out_path_;
  bool profile_ = false;
  bool finished_ = false;
};

}  // namespace tokenring::obs
