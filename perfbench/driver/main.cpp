// perfbench_driver: the measuring half of the repo benchmark (run.py is the
// orchestrating half). Usage:
//
//   perfbench_driver fig1|fig1-trace|fig1-ref|sim|sim-trace|serve [--key=value]
//
// Every mode prints JSON objects, one per line, on stdout; diagnostics go
// to stderr. Exit code 0 means the mode ran to the end; correctness
// verdicts are fields of the output, judged by run.py.

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "tokenring/obs/registry.hpp"

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got '" + arg + "'");
    }
    values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
}

const std::string& Args::str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("--" + key + " is required");
  return it->second;
}

double Args::num(const std::string& key) const { return std::stod(str(key)); }

std::uint64_t Args::u64(const std::string& key) const {
  return std::stoull(str(key));
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t obs_counter(const char* name) {
  const auto snap = tokenring::obs::Registry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

Line& Line::nums(std::string_view key, const std::vector<double>& values) {
  w_.key(key).begin_array();
  for (const double v : values) w_.value_number(v);
  w_.end_array();
  return *this;
}

void Line::emit() {
  w_.end_object();
  std::cout << os_.str() << '\n' << std::flush;
}

void emit_ready() { Line().str("event", "ready").emit(); }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver "
                 "fig1|fig1-trace|fig1-ref|sim|sim-trace|serve "
                 "[--key=value ...]\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (mode.rfind("fig1", 0) == 0) return run_fig1_mode(mode, args);
    if (mode.rfind("sim", 0) == 0) return run_sim_mode(mode, args);
    if (mode == "serve") return run_serve_mode(args);
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
}
