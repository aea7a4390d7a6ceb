#include "tokenring/obs/report.hpp"

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "tokenring/obs/span.hpp"

namespace tokenring::obs {

void declare_report_flags(CliFlags& flags) {
  flags.declare("format", "table",
                "output format: table (human), csv (legacy CSV block), "
                "json (run manifest on stdout)");
  flags.declare("out", "", "write the run manifest JSON to this file");
  flags.declare("profile", "false",
                "print the span-profile report to stderr on exit");
}

std::optional<int> bootstrap_run(RunReport& report, CliFlags& flags,
                                 int argc, char** argv,
                                 const StandardFlags& standard) {
  if (standard.jobs) declare_jobs_flag(flags);
  declare_report_flags(flags);
  switch (flags.parse_detailed(argc, argv)) {
    case CliFlags::ParseOutcome::kHelp:
      return 0;
    case CliFlags::ParseOutcome::kError:
      return 1;
    case CliFlags::ParseOutcome::kOk:
      break;
  }
  if (!report.init(flags)) return 1;
  return std::nullopt;
}

RunReport::RunReport(std::string tool_name) {
  manifest_.tool = std::move(tool_name);
}

bool RunReport::init(const CliFlags& flags) {
  if (flags.has("format")) {
    const std::string fmt = flags.get_string("format");
    if (fmt == "table") {
      format_ = OutputFormat::kTable;
    } else if (fmt == "csv") {
      format_ = OutputFormat::kCsv;
    } else if (fmt == "json") {
      format_ = OutputFormat::kJson;
    } else {
      std::fprintf(stderr,
                   "unknown --format value: %s (expected table, csv, json)\n",
                   fmt.c_str());
      return false;
    }
  }
  if (flags.has("out")) out_path_ = flags.get_string("out");
  if (flags.has("profile")) profile_ = flags.get_bool("profile");
  if (flags.has("seed")) {
    manifest_.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  }
  if (flags.has("jobs")) manifest_.jobs = get_jobs(flags);
  manifest_.config = flags.items();
  return true;
}

void RunReport::add_table(const std::string& name, const Table& table) {
  manifest_.add_table(name, table);
  if (format_ == OutputFormat::kTable) {
    table.print(std::cout);
    std::printf("\nCSV:\n");
    table.print_csv(std::cout);
  } else if (format_ == OutputFormat::kCsv) {
    table.print_csv(std::cout);
  }
}

void RunReport::note(const char* fmt, ...) {
  if (format_ != OutputFormat::kTable) return;
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
}

int RunReport::finish() {
  if (finished_) return 0;
  finished_ = true;
  manifest_.metrics = Registry::global().snapshot();

  int exit_code = 0;
  if (format_ == OutputFormat::kJson) {
    manifest_.write_json(std::cout);
  }
  if (!out_path_.empty()) {
    std::ofstream out(out_path_);
    if (!out) {
      std::fprintf(stderr, "cannot write manifest: %s\n", out_path_.c_str());
      exit_code = 1;
    } else {
      manifest_.write_json(out);
    }
  }
  if (profile_) {
    const std::string profile = format_span_profile();
    std::fprintf(stderr, "%s",
                 profile.empty() ? "span profile: no spans recorded\n"
                                 : profile.c_str());
  }
  return exit_code;
}

}  // namespace tokenring::obs
