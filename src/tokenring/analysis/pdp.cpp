#include "tokenring/analysis/pdp.hpp"

#include <algorithm>
#include <cmath>

#include "tokenring/common/checks.hpp"

namespace tokenring::analysis {

const char* to_string(PdpVariant v) {
  switch (v) {
    case PdpVariant::kStandard8025:
      return "IEEE 802.5";
    case PdpVariant::kModified8025:
      return "Modified IEEE 802.5";
  }
  return "?";
}

void PdpParams::validate() const {
  ring.validate();
  frame.validate();
}

Seconds pdp_augmented_length(const msg::SyncStream& stream,
                             const PdpParams& params, BitsPerSecond bw) {
  TR_EXPECTS(bw > 0.0);
  if (stream.payload_bits <= 0.0) return 0.0;

  const Seconds theta = params.ring.theta(bw);
  const Seconds frame_time = params.frame.frame_time(bw);
  const auto full = params.frame.full_frames(stream.payload_bits);    // L_i
  const auto total = params.frame.frames_for_payload(stream.payload_bits);  // K_i
  const auto k = static_cast<double>(total);
  const auto l = static_cast<double>(full);

  // Token-circulation overhead: Theta/2 on average per token pass; paid per
  // frame (standard) or per message (modified).
  const Seconds token_overhead =
      params.variant == PdpVariant::kStandard8025 ? k * theta / 2.0
                                                  : theta / 2.0;

  if (frame_time <= theta) {
    // Every frame's slot is dominated by waiting for its header to return.
    return k * theta + token_overhead;
  }

  // F > Theta: L_i full frames cost F each; a short last frame (iff
  // K_i = L_i + 1) costs max(C_i - L_i*F_info + F_ovhd, Theta).
  Seconds result = l * frame_time + token_overhead;
  if (total > full) {
    const Seconds short_frame_time =
        stream.payload_time(bw) - l * params.frame.info_time(bw) +
        params.frame.overhead_time(bw);
    result += std::max(short_frame_time, theta);
  }
  return result;
}

Seconds pdp_blocking(const PdpParams& params, BitsPerSecond bw) {
  TR_EXPECTS(bw > 0.0);
  return 2.0 * std::max(params.frame.frame_time(bw), params.ring.theta(bw));
}

namespace {

/// FpTasks of a set already in rate-monotonic order.
std::vector<FpTask> tasks_of_sorted(const msg::MessageSet& sorted,
                                    const PdpParams& params, BitsPerSecond bw) {
  std::vector<FpTask> tasks;
  tasks.reserve(sorted.size());
  for (const auto& s : sorted.streams()) {
    tasks.push_back(FpTask{s.period, pdp_augmented_length(s, params, bw),
                           s.relative_deadline});
  }
  return tasks;
}

}  // namespace

std::vector<FpTask> pdp_tasks(const msg::MessageSet& set,
                              const PdpParams& params, BitsPerSecond bw) {
  return tasks_of_sorted(set.rm_sorted(), params, bw);
}

PdpVerdict pdp_schedulable(const msg::MessageSet& set, const PdpParams& params,
                           BitsPerSecond bw) {
  params.validate();
  set.validate();
  TR_EXPECTS(bw > 0.0);

  const msg::MessageSet sorted = set.rm_sorted();
  const std::vector<FpTask> tasks = tasks_of_sorted(sorted, params, bw);
  const Seconds blocking = pdp_blocking(params, bw);
  const FpSetVerdict fp = response_time_analysis(tasks, blocking);

  PdpVerdict v;
  v.schedulable = fp.schedulable;
  v.blocking = blocking;
  v.reports.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto& r = v.reports[i];
    r.stream = sorted[i];
    r.augmented_length = tasks[i].cost;
    r.frames = params.frame.frames_for_payload(sorted[i].payload_bits);
    r.schedulable = fp.tasks[i].schedulable;
    r.response_time = fp.tasks[i].response_time;
  }
  return v;
}

bool pdp_feasible(const msg::MessageSet& set, const PdpParams& params,
                  BitsPerSecond bw) {
  TR_EXPECTS(bw > 0.0);
  const std::vector<FpTask> tasks = pdp_tasks(set, params, bw);
  return rta_feasible(tasks, pdp_blocking(params, bw));
}

}  // namespace tokenring::analysis
