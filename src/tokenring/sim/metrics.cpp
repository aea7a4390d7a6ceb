#include "tokenring/sim/metrics.hpp"

#include <sstream>

#include "tokenring/common/checks.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::sim {

void record_run_observability(const SimMetrics& metrics,
                              const Simulator& engine) {
  static const obs::Counter runs("sim.runs");
  static const obs::Counter sim_events("sim.events");
  static const obs::Counter queued("sim.queue_events");
  static const obs::Counter frontier("sim.frontier_steps");
  static const obs::Counter released("sim.messages_released");
  static const obs::Counter completed("sim.messages_completed");
  static const obs::Counter misses("sim.deadline_misses");
  static const obs::Counter rotations("sim.token_rotations");
  static const obs::Counter async_frames("sim.async_frames_sent");
  static const obs::Counter recoveries("sim.recovery_invocations");
  static const obs::Gauge queue_depth("sim.max_queue_depth");
  runs.add();
  sim_events.add(engine.events_executed());
  queued.add(engine.queue_events());
  frontier.add(engine.frontier_steps());
  released.add(metrics.messages_released);
  completed.add(metrics.messages_completed);
  misses.add(metrics.deadline_misses);
  rotations.add(metrics.token_rotation.count());
  async_frames.add(metrics.async_frames_sent);
  recoveries.add(metrics.faults_injected());
  queue_depth.record(metrics.max_queue_depth);
}

void SimMetrics::on_release(int station) {
  ++messages_released;
  ++per_station[station].released;
}

void SimMetrics::on_completion(int station, Seconds arrival, Seconds response,
                               Seconds period, Seconds deadline,
                               Seconds slack) {
  ++messages_completed;
  response_time.add(response);
  normalized_response.add(response / period);
  auto& st = per_station[station];
  ++st.completed;
  st.response_time.add(response);
  if (response > deadline + slack) {
    ++deadline_misses;
    ++st.misses;
    attribute_miss(arrival, arrival + response);
  }
}

void SimMetrics::on_abandoned_miss(int station, Seconds arrival,
                                   Seconds deadline) {
  ++deadline_misses;
  ++per_station[station].misses;
  attribute_miss(arrival, arrival + deadline);
}

void SimMetrics::on_fault(fault::FaultKind kind, Seconds begin, Seconds end) {
  TR_EXPECTS(end >= begin);
  auto& acct = per_fault[kind];
  ++acct.injected;
  acct.outage += end - begin;
  if (kind == fault::FaultKind::kTokenLoss) ++token_losses;
  if (end > begin) outages.push_back({begin, end, kind});
}

void SimMetrics::attribute_miss(Seconds begin, Seconds end) {
  // Most recent overlapping outage claims the miss: it is the proximate
  // cause of the lateness. Outages are few per run, so a reverse scan is
  // cheap.
  for (auto it = outages.rbegin(); it != outages.rend(); ++it) {
    if (it->begin < end && it->end > begin) {
      ++per_fault[it->kind].attributed_misses;
      return;
    }
  }
}

std::size_t SimMetrics::faults_injected() const {
  std::size_t total = 0;
  for (const auto& [kind, acct] : per_fault) total += acct.injected;
  return total;
}

Seconds SimMetrics::total_outage() const {
  Seconds total = 0.0;
  for (const auto& [kind, acct] : per_fault) total += acct.outage;
  return total;
}

std::size_t SimMetrics::fault_attributed_misses() const {
  std::size_t total = 0;
  for (const auto& [kind, acct] : per_fault) total += acct.attributed_misses;
  return total;
}

std::string SimMetrics::summary() const {
  std::ostringstream os;
  os << "released=" << messages_released
     << " completed=" << messages_completed << " misses=" << deadline_misses
     << " (ratio " << miss_ratio() << ")\n";
  if (response_time.count() > 0) {
    os << "response time [ms]: mean=" << to_milliseconds(response_time.mean())
       << " max=" << to_milliseconds(response_time.max())
       << "; normalized (r/P): mean=" << normalized_response.mean()
       << " max=" << normalized_response.max() << "\n";
  }
  if (token_rotation.count() > 0) {
    os << "token rotation @station0 [ms]: mean="
       << to_milliseconds(token_rotation.mean())
       << " max=" << to_milliseconds(token_rotation.max()) << "\n";
  }
  os << "async frames sent=" << async_frames_sent << "\n";
  for (const auto& [kind, acct] : per_fault) {
    os << "fault " << fault::to_string(kind) << ": injected=" << acct.injected
       << " outage_ms=" << to_milliseconds(acct.outage)
       << " attributed_misses=" << acct.attributed_misses << "\n";
  }
  return os.str();
}

}  // namespace tokenring::sim
