// Minimal command-line flag parsing for bench/example binaries.
//
// Flags are `--name=value` or `--name value`. Unknown flags are an error so
// typos surface immediately. Each binary declares its flags up front, which
// doubles as `--help` text.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace tokenring {

/// Parses `--key=value` style flags with typed accessors and defaults.
class CliFlags {
 public:
  /// Declare a flag before parsing. `help` is shown by `--help`.
  void declare(const std::string& name, const std::string& default_value,
               const std::string& help);

  /// Outcome of parse_detailed: an explicit help request (the caller exits
  /// 0) is distinct from a flag error (the caller exits 1).
  enum class ParseOutcome { kOk, kHelp, kError };

  /// Parse argv. Prints usage on kHelp (`--help`/`-h`) and on kError
  /// (unknown flag, missing value, stray positional), with the error
  /// reason on stderr first. The first call also installs a terminate
  /// handler that turns an uncaught PreconditionError (a bad flag value
  /// read later by get_int and friends) into its message and exit 1.
  ParseOutcome parse_detailed(int argc, char** argv);

  /// Typed accessors; flag must have been declared.
  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// True iff the flag was declared (not necessarily set on the command
  /// line). Lets shared helpers probe for optional flags.
  bool has(const std::string& name) const { return flags_.count(name) > 0; }

  /// Every declared flag with its final (post-parse) value, sorted by name.
  /// Used to echo the effective configuration into run manifests.
  std::vector<std::pair<std::string, std::string>> items() const;

  /// Print usage for all declared flags, each with its declared default.
  void print_usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;          ///< current value (the default until set)
    std::string default_value;  ///< as declared; shown by --help
    std::string help;
  };
  std::map<std::string, Flag> flags_;
};

/// Split a comma-separated list into values ("1,2,5" -> {1,2,5}).
std::vector<double> parse_double_list(const std::string& csv);

/// Declare the standard `--jobs` flag (worker threads for parallel Monte
/// Carlo; 0 = hardware concurrency, 1 = sequential). Every binary that
/// sweeps Monte Carlo points declares it through here so the wording and
/// default stay uniform.
void declare_jobs_flag(CliFlags& flags);

/// Read the `--jobs` flag declared by `declare_jobs_flag`. Rejects
/// negative values; returns 0 for "use hardware concurrency".
std::size_t get_jobs(const CliFlags& flags);

}  // namespace tokenring
