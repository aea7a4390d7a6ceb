// Shared helpers of the benchmark driver: argument parsing, timing, peak
// memory, and the one-JSON-object-per-line output that run.py consumes.
//
// The driver measures the program from outside: it calls the library's
// public entry points and times them here, it never adds spans or counters
// to src/.

#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tokenring/obs/json.hpp"

namespace perfbench {

/// --key=value arguments after the mode word. run.py passes every key a
/// mode reads, so a missing key is an error, not a default.
class Args {
 public:
  Args(int argc, char** argv, int first);
  const std::string& str(const std::string& key) const;
  double num(const std::string& key) const;
  std::uint64_t u64(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Peak resident set size [MiB] of process `pid` (0 = this process), read
/// from VmHWM in /proc; 0 when unavailable.
double peak_rss_mb(int pid = 0);

/// Busy time and call count of one layer, accumulated by a traced replay.
struct Layer {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

/// Wall time of a fixed amount of CPU work, independent of the program,
/// run on `threads` threads at once (calib.cpp); 0 if the work came out
/// wrong. It tells how fast this machine runs at the moment.
double host_probe_s(std::size_t threads);

/// One timed section in chunks, each bracketed by host probes: probe_s[i]
/// ran right before chunk i and probe_s[i + 1] right after it. run.py
/// divides each chunk's time by its probes', which cancels the drift of a
/// shared machine's speed (see calib.cpp).
struct Probed {
  std::vector<double> chunk_s;
  std::vector<double> probe_s;
};

/// Keeps the calling thread, and the threads it starts, on the core it
/// runs on now, until destroyed. A one-thread section and its probes then
/// share a core: on a shared host each core has its own neighbours, so a
/// probe on another core would measure another speed.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu();
  ~PinToCurrentCpu();
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Run chunk(i) for i in [0, chunks), timing each, with a host probe on
/// `threads` threads before the first chunk and after every chunk. A
/// one-thread section runs pinned to one core with its probes.
template <typename F>
Probed probed(std::size_t chunks, std::size_t threads, F&& chunk) {
  std::optional<PinToCurrentCpu> pin;
  if (threads == 1) pin.emplace();
  Probed out;
  out.probe_s.push_back(host_probe_s(threads));
  for (std::size_t i = 0; i < chunks; ++i) {
    const double t0 = now_s();
    chunk(i);
    out.chunk_s.push_back(now_s() - t0);
    out.probe_s.push_back(host_probe_s(threads));
  }
  return out;
}

/// Current value of one of the program's own obs counters (0 if unset).
std::uint64_t obs_counter(const char* name);

/// One flat JSON object, written with the program's own obs::JsonWriter.
class Line {
 public:
  Line() { w_.begin_object(); }
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;

  Line& num(std::string_view key, double value) {
    w_.key(key).value_number(value);
    return *this;
  }
  Line& u64(std::string_view key, std::uint64_t value) {
    w_.key(key).value_uint(value);
    return *this;
  }
  Line& flag(std::string_view key, bool value) {
    w_.key(key).value_bool(value);
    return *this;
  }
  Line& str(std::string_view key, std::string_view value) {
    w_.key(key).value_string(value);
    return *this;
  }
  Line& nums(std::string_view key, const std::vector<double>& values);
  /// `key`_chunk_s and `key`_probe_s.
  Line& probed(const std::string& key, const Probed& p) {
    return nums(key + "_chunk_s", p.chunk_s).nums(key + "_probe_s", p.probe_s);
  }
  /// Print as one line on stdout and flush, so run.py sees it at once.
  void emit();

 private:
  std::ostringstream os_;
  tokenring::obs::JsonWriter w_{os_};
};

/// Tell run.py set-up is over: the next thing this process does is timed.
void emit_ready();

/// Workload entry points (one per translation unit).
int run_fig1_mode(const std::string& mode, const Args& args);
int run_sim_mode(const std::string& mode, const Args& args);
int run_serve_mode(const Args& args);

}  // namespace perfbench
