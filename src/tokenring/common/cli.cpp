#include "tokenring/common/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "tokenring/common/checks.hpp"

namespace tokenring {

namespace {

std::terminate_handler previous_terminate = nullptr;

// A bad flag value surfaces only when main reads it: get_int and friends
// throw PreconditionError after parse_detailed has returned kOk. Uncaught,
// it would abort with exit 134; report it like any other flag error
// instead (message, exit 1). Other exceptions keep the default handling.
[[noreturn]] void exit_on_precondition_error() {
  if (const auto ex = std::current_exception()) {
    try {
      std::rethrow_exception(ex);
    } catch (const PreconditionError& e) {
      std::fflush(stdout);
      std::fprintf(stderr, "%s\n", e.what());
      std::_Exit(1);
    } catch (...) {
    }
  }
  if (previous_terminate) previous_terminate();
  std::abort();
}

}  // namespace

void CliFlags::declare(const std::string& name, const std::string& default_value,
                       const std::string& help) {
  TR_EXPECTS_MSG(!flags_.count(name), "flag declared twice: " + name);
  flags_[name] = Flag{default_value, default_value, help};
}

CliFlags::ParseOutcome CliFlags::parse_detailed(int argc, char** argv) {
  // Every bench, example and tool parses its flags here first, so this is
  // the one place that gives an escaping PreconditionError its exit code.
  static const bool installed = [] {
    previous_terminate = std::set_terminate(exit_on_precondition_error);
    return true;
  }();
  (void)installed;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return ParseOutcome::kHelp;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      print_usage(argv[0]);
      return ParseOutcome::kError;
    }
    std::string name;
    std::string value;
    bool have_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
      have_value = true;
    } else {
      name = arg.substr(2);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      print_usage(argv[0]);
      return ParseOutcome::kError;
    }
    if (!have_value) {
      // Boolean flags (default "true"/"false") may appear bare: `--profile`.
      const std::string& dflt = it->second.default_value;
      const bool boolean_like = dflt == "true" || dflt == "false";
      const bool next_is_flag =
          i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0;
      if (boolean_like && next_is_flag) {
        value = "true";
      } else if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        print_usage(argv[0]);
        return ParseOutcome::kError;
      } else {
        value = argv[++i];
      }
    }
    it->second.value = value;
  }
  return ParseOutcome::kOk;
}

std::string CliFlags::get_string(const std::string& name) const {
  auto it = flags_.find(name);
  TR_EXPECTS_MSG(it != flags_.end(), "flag not declared: " + name);
  return it->second.value;
}

double CliFlags::get_double(const std::string& name) const {
  const std::string v = get_string(name);
  try {
    return std::stod(v);
  } catch (const std::exception&) {
    throw PreconditionError("flag --" + name + " is not a number: " + v);
  }
}

std::int64_t CliFlags::get_int(const std::string& name) const {
  const std::string v = get_string(name);
  try {
    return std::stoll(v);
  } catch (const std::exception&) {
    throw PreconditionError("flag --" + name + " is not an integer: " + v);
  }
}

bool CliFlags::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw PreconditionError("flag --" + name + " is not a boolean: " + v);
}

std::vector<std::pair<std::string, std::string>> CliFlags::items() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(flags_.size());
  for (const auto& [name, flag] : flags_) out.emplace_back(name, flag.value);
  return out;
}

void CliFlags::print_usage(const std::string& program) const {
  std::fprintf(stderr, "usage: %s [--flag=value ...]\n", program.c_str());
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%-24s %s (default: %s)\n", name.c_str(),
                 flag.help.c_str(), flag.default_value.c_str());
  }
}

void declare_jobs_flag(CliFlags& flags) {
  flags.declare("jobs", "0",
                "worker threads (0 = hardware concurrency, 1 = sequential); "
                "results are identical for every value");
}

std::size_t get_jobs(const CliFlags& flags) {
  const std::int64_t jobs = flags.get_int("jobs");
  if (jobs < 0) throw PreconditionError("flag --jobs must be >= 0");
  return static_cast<std::size_t>(jobs);
}

std::vector<double> parse_double_list(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    out.push_back(std::stod(item));
  }
  return out;
}

}  // namespace tokenring
