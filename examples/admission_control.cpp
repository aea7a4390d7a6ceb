// Online admission control — the runtime face of the schedulability
// criteria: streams request guarantees one at a time; the controller admits
// only what remains provably schedulable, and can quote the payload
// headroom left for a prospective period.
//
//   ./admission_control --protocol=fddi --bandwidth-mbps=100

#include <cstdio>
#include <string>

#include "tokenring/common/cli.hpp"
#include "tokenring/common/rng.hpp"
#include "tokenring/planner/planner.hpp"

using namespace tokenring;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("protocol", "fddi", planner::protocol_keys(" | "));
  flags.declare("bandwidth-mbps", "100", "link bandwidth [Mbit/s]");
  flags.declare("stations", "32", "stations on the ring");
  flags.declare("requests", "40", "number of admission requests to replay");
  flags.declare("seed", "3", "RNG seed for the request workload");
  if (const auto parsed = flags.parse_detailed(argc, argv);
      parsed != CliFlags::ParseOutcome::kOk) {
    return parsed == CliFlags::ParseOutcome::kHelp ? 0 : 1;
  }

  const std::string name = flags.get_string("protocol");
  const auto protocol = planner::parse_protocol(name);
  if (!protocol) {
    std::fprintf(stderr, "unknown protocol: %s\n", name.c_str());
    return 1;
  }

  const int stations = static_cast<int>(flags.get_int("stations"));
  const auto config = planner::default_config(
      *protocol, mbps(flags.get_double("bandwidth-mbps")), stations);
  planner::AdmissionController controller(config);

  std::printf("Admission control on %s at %.0f Mbps (%d stations)\n\n",
              planner::to_string(*protocol), to_mbps(config.bandwidth),
              stations);

  // Replay a random arrival sequence of guarantee requests.
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const auto requests = static_cast<int>(flags.get_int("requests"));
  int admitted = 0;
  for (int i = 0; i < requests; ++i) {
    msg::SyncStream s;
    s.station = static_cast<int>(rng.uniform_int(0, stations - 1));
    s.period = milliseconds(rng.uniform(10.0, 200.0));
    s.payload_bits = rng.uniform(10'000.0, 400'000.0);
    const auto decision = controller.try_admit(s);
    std::printf("request %2d: station %2d P=%5.1fms C=%6.0fb -> %-8s (U=%.3f) %s\n",
                i, s.station, to_milliseconds(s.period), s.payload_bits,
                decision.admitted ? "ADMIT" : "REJECT", decision.utilization,
                decision.admitted ? "" : decision.reason.c_str());
    if (decision.admitted) ++admitted;
  }

  std::printf("\nadmitted %d / %d requests; final utilization %.3f\n", admitted,
              requests, controller.utilization());

  // Quote remaining headroom for a hypothetical new 50 ms stream.
  for (int station = 0; station < stations; ++station) {
    const auto headroom = controller.headroom_bits(milliseconds(50), station);
    if (headroom) {
      std::printf(
          "first free station: %d — a 50 ms stream there could still carry "
          "%.0f bits (%.1f KB) per period\n",
          station, *headroom, *headroom / 8.0 / 1024.0);
      break;
    }
  }

  // Withdraw everything and show the controller drains cleanly.
  int removed = 0;
  for (int station = 0; station < stations; ++station) {
    while (controller.remove(station)) ++removed;
  }
  std::printf("released %d admitted streams; utilization now %.3f\n", removed,
              controller.utilization());
  return 0;
}
