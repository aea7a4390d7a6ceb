#include "tokenring/sim/event.hpp"

namespace tokenring::sim {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kUser:
      return "user";
    case EventKind::kKickoff:
      return "kickoff";
    case EventKind::kFault:
      return "fault";
    case EventKind::kRecovery:
      return "recovery";
    case EventKind::kCorruptionRetry:
      return "corruption-retry";
    case EventKind::kPdpArrival:
      return "pdp-arrival";
    case EventKind::kPdpAsyncArrival:
      return "pdp-async-arrival";
    case EventKind::kPdpIdleCapture:
      return "pdp-idle-capture";
    case EventKind::kPdpWalkDone:
      return "pdp-walk-done";
    case EventKind::kPdpSyncFrameDone:
      return "pdp-sync-frame-done";
    case EventKind::kPdpAsyncFrameDone:
      return "pdp-async-frame-done";
  }
  return "?";
}

}  // namespace tokenring::sim
