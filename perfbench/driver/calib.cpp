// Host speed probe: a fixed amount of CPU work, independent of src/, whose
// wall time tells how fast this machine runs right now.
//
// On a shared virtual machine the same work can take 1.5x longer from one
// minute to the next (neighbours on the same physical cores, frequency
// changes). run.py divides each timed section by the probe's time measured
// right before and after it, which cancels that common-mode drift while a
// change to the program still moves the quotient. The work is a mix of
// what the program does: a response-time fixpoint over a fixed task set
// (division, ceil), the arithmetic of the analyses; sorting (branches);
// and dependent loads over a table that spills the L1 cache (the pointer
// chasing of hash maps and event queues). It never calls into the program,
// so no change under src/ can move it.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTasks = 48;
constexpr int kUtilizationSteps = 64;
constexpr std::size_t kUnits = 8;  // per thread; a unit takes ~3 ms
constexpr std::size_t kSortN = 4096;
constexpr std::size_t kTable = 1 << 13;  // 64 KiB of std::uint64_t
constexpr std::size_t kChase = 1 << 17;

struct TaskSet {
  std::array<double, kTasks> period{};
  std::array<double, kTasks> cost{};
};

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

TaskSet fixed_task_set() {
  TaskSet set;
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  double util = 0.0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    set.period[i] = 100.0 + static_cast<double>(xorshift(s) % 100000);
    set.cost[i] = 1.0 + static_cast<double>(xorshift(s) % 1000);
  }
  std::sort(set.period.begin(), set.period.end());
  for (std::size_t i = 0; i < kTasks; ++i) util += set.cost[i] / set.period[i];
  for (auto& c : set.cost) c /= util;  // total utilization 1 at scale 1
  return set;
}

/// Worst-case response times of the rate-monotonic task set scaled to
/// utilization u, by the classic fixpoint; returns their sum.
double response_times(const TaskSet& set, double u) {
  double sum = 0.0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    const double c = set.cost[i] * u;
    double w = c;
    for (;;) {
      double next = c;
      for (std::size_t j = 0; j < i; ++j) {
        next += std::ceil(w / set.period[j]) * set.cost[j] * u;
      }
      if (next == w || next > set.period[i]) {
        w = next;
        break;
      }
      w = next;
    }
    sum += w;
  }
  return sum;
}

/// A thread's working memory, allocated and touched before the timing
/// starts (page faults serialize across threads on a virtual machine).
/// The driver allocates one per core once and keeps it, so the probe adds
/// a fixed amount to the driver's peak memory, not a varying one.
struct Scratch {
  std::vector<std::uint64_t> keys, sorted, table;
  Scratch() : keys(kSortN), sorted(kSortN), table(kTable) {
    std::uint64_t s = 0x2545F4914F6CDD1Dull;
    for (auto& k : keys) k = xorshift(s);
    for (auto& t : table) t = xorshift(s) % kTable;
  }
};

/// One unit of probe work; every unit computes the same value.
double probe_unit(const TaskSet& set, Scratch& scratch) {
  double sink = 0.0;
  for (int k = 1; k <= kUtilizationSteps; ++k) {
    sink += response_times(set, 0.9 * k / kUtilizationSteps);
  }
  for (int k = 0; k < 4; ++k) {
    scratch.sorted = scratch.keys;
    std::sort(scratch.sorted.begin(), scratch.sorted.end());
    sink += static_cast<double>(scratch.sorted[kSortN / 2 + k] >> 40);
  }
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < kChase; ++i) {
    at = scratch.table[(at + i) % kTable];
  }
  return sink + static_cast<double>(at);
}

}  // namespace

PinToCurrentCpu::PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

PinToCurrentCpu::~PinToCurrentCpu() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double host_probe_s(std::size_t threads) {
  // Called from one thread at a time (the driver's main thread).
  // kUnits units per thread, handed out one at a time like the program's
  // own pools do, so the time follows the threads' combined speed rather
  // than the slowest thread's.
  const std::size_t units = kUnits * threads;
  const TaskSet set = fixed_task_set();
  static std::vector<Scratch> scratch(
      std::max<std::size_t>(threads, std::thread::hardware_concurrency()));
  if (scratch.size() < threads) scratch.resize(threads);
  std::vector<double> sinks(units, 0.0);
  std::atomic<std::size_t> next{0};
  const double t0 = now_s();
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t u = next++; u < units; u = next++) {
          sinks[u] = probe_unit(set, scratch[t]);
        }
      });
    }
  }
  const double wall = now_s() - t0;
  // Every unit computes the same fixed sum; a mismatch means the probe was
  // miscompiled or the hardware misbehaved, and the time is not trusted.
  for (const double s : sinks) {
    if (s != sinks.front() || !std::isfinite(s)) return 0.0;
  }
  return wall;
}

}  // namespace perfbench
