// The protocol table: the one place that maps a protocol name to ring
// constants and to the criterion that judges it.
//
// The paper compares three implementations — IEEE 802.5, modified 802.5
// (Theorem 4.1, PDP) and FDDI (Theorem 5.1, TTP). Every front end that
// accepts a protocol name (tokenring_tool, the serve wire, the admission
// controller, the examples) spells it, sizes the ring and builds the
// analysis parameters through this header, so an offline answer and a
// served answer for the same scenario come from the same code.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tokenring/analysis/pdp.hpp"
#include "tokenring/analysis/ttp.hpp"
#include "tokenring/fault/margins.hpp"
#include "tokenring/msg/message_set.hpp"

namespace tokenring::planner {

/// The three protocol implementations the paper compares.
enum class Protocol {
  kIeee8025,
  kModified8025,
  kFddi,
};

/// Display name, e.g. "FDDI timed token".
const char* to_string(Protocol protocol);

/// Wire and command-line key: "ieee8025" | "modified8025" | "fddi".
const char* protocol_key(Protocol protocol);

/// The protocol whose key is `key`; nullopt for any other spelling.
std::optional<Protocol> parse_protocol(std::string_view key);

/// Every key in enum order, joined by `separator` (help texts use " | ",
/// error messages "|").
std::string protocol_keys(std::string_view separator);

/// Static ring description for one protocol at one bandwidth.
struct PlannerConfig {
  Protocol protocol = Protocol::kFddi;
  BitsPerSecond bandwidth = mbps(100);
  net::RingParams ring;
  net::FrameFormat frame;
  /// Asynchronous frame geometry (TTP overrun term only).
  net::FrameFormat async_frame;

  void validate() const;
};

/// Standard-conformant config: the protocol family's ring constants and
/// the paper's frame format.
PlannerConfig default_config(Protocol protocol, BitsPerSecond bandwidth,
                             int num_stations = 100);

/// default_config with the ring sized for `set`:
/// max(2, streams, highest station + 1) stations.
PlannerConfig scenario_config(Protocol protocol, BitsPerSecond bandwidth,
                              const msg::MessageSet& set);

/// Theorem 4.1 parameters. Requires an 802.5 protocol.
analysis::PdpParams pdp_params(const PlannerConfig& config);

/// Theorem 5.1 parameters. Requires Protocol::kFddi.
analysis::TtpParams ttp_params(const PlannerConfig& config);

/// One fault kind's resilience verdict.
struct FaultMarginRow {
  fault::FaultKind kind = fault::FaultKind::kTokenLoss;
  fault::FaultMarginReport report;
};

/// The fault margin of `set` for every fault kind except kStationRejoin
/// (it costs what a crash costs), in kAllFaultKinds order; `noise` is the
/// noise burst length. Every row carries the same fault-free verdict.
std::vector<FaultMarginRow> fault_margin_rows(const msg::MessageSet& set,
                                              const PlannerConfig& config,
                                              Seconds noise);

}  // namespace tokenring::planner
