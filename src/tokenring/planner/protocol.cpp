#include "tokenring/planner/protocol.hpp"

#include <algorithm>

#include "tokenring/common/checks.hpp"
#include "tokenring/net/standards.hpp"

namespace tokenring::planner {

namespace {

struct Spelling {
  const char* key;
  const char* name;
};

/// Indexed by Protocol.
constexpr Spelling kSpellings[] = {
    {"ieee8025", "IEEE 802.5"},
    {"modified8025", "Modified IEEE 802.5"},
    {"fddi", "FDDI timed token"},
};

const Spelling& spelling(Protocol protocol) {
  return kSpellings[static_cast<std::size_t>(protocol)];
}

}  // namespace

const char* to_string(Protocol protocol) { return spelling(protocol).name; }

const char* protocol_key(Protocol protocol) { return spelling(protocol).key; }

std::optional<Protocol> parse_protocol(std::string_view key) {
  for (std::size_t i = 0; i < std::size(kSpellings); ++i) {
    if (key == kSpellings[i].key) return static_cast<Protocol>(i);
  }
  return std::nullopt;
}

std::string protocol_keys(std::string_view separator) {
  std::string keys;
  for (const Spelling& s : kSpellings) {
    if (!keys.empty()) keys += separator;
    keys += s.key;
  }
  return keys;
}

void PlannerConfig::validate() const {
  TR_EXPECTS(bandwidth > 0.0);
  ring.validate();
  frame.validate();
  async_frame.validate();
}

PlannerConfig default_config(Protocol protocol, BitsPerSecond bandwidth,
                             int num_stations) {
  PlannerConfig cfg;
  cfg.protocol = protocol;
  cfg.bandwidth = bandwidth;
  cfg.ring = protocol == Protocol::kFddi ? net::fddi_ring(num_stations)
                                         : net::ieee8025_ring(num_stations);
  cfg.frame = net::paper_frame_format();
  cfg.async_frame = net::paper_frame_format();
  return cfg;
}

PlannerConfig scenario_config(Protocol protocol, BitsPerSecond bandwidth,
                              const msg::MessageSet& set) {
  int n = std::max<int>(2, static_cast<int>(set.size()));
  for (const auto& s : set.streams()) n = std::max(n, s.station + 1);
  return default_config(protocol, bandwidth, n);
}

analysis::PdpParams pdp_params(const PlannerConfig& config) {
  TR_EXPECTS(config.protocol != Protocol::kFddi);
  analysis::PdpParams p;
  p.ring = config.ring;
  p.frame = config.frame;
  p.variant = config.protocol == Protocol::kIeee8025
                  ? analysis::PdpVariant::kStandard8025
                  : analysis::PdpVariant::kModified8025;
  return p;
}

analysis::TtpParams ttp_params(const PlannerConfig& config) {
  TR_EXPECTS(config.protocol == Protocol::kFddi);
  analysis::TtpParams p;
  p.ring = config.ring;
  p.frame = config.frame;
  p.async_frame = config.async_frame;
  return p;
}

std::vector<FaultMarginRow> fault_margin_rows(const msg::MessageSet& set,
                                              const PlannerConfig& config,
                                              Seconds noise) {
  std::vector<FaultMarginRow> rows;
  for (fault::FaultKind kind : fault::kAllFaultKinds) {
    if (kind == fault::FaultKind::kStationRejoin) continue;  // = crash cost
    const fault::FaultBudget budget{kind, noise};
    rows.push_back(
        {kind, config.protocol == Protocol::kFddi
                   ? fault::ttp_fault_margin(set, ttp_params(config),
                                             config.bandwidth, 0.0, budget)
                   : fault::pdp_fault_margin(set, pdp_params(config),
                                             config.bandwidth, budget)});
  }
  return rows;
}

}  // namespace tokenring::planner
