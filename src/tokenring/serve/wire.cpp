#include "tokenring/serve/wire.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "tokenring/common/checks.hpp"
#include "tokenring/planner/protocol.hpp"

namespace tokenring::serve {

namespace {

/// 2^64: a deadline must stay below this many nanoseconds for the
/// engine's uint64 conversion to be defined.
constexpr double kDeadlineNsLimit = 18446744073709551616.0;

/// Render a scalar JsonValue back to its JSON token (for the id echo).
bool render_scalar(const obs::JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case obs::JsonValue::Kind::kNull:
      out = "null";
      return true;
    case obs::JsonValue::Kind::kBool:
      out = v.as_bool() ? "true" : "false";
      return true;
    case obs::JsonValue::Kind::kNumber:
      out.assign(v.number_token());
      return true;
    case obs::JsonValue::Kind::kString: {
      std::string quoted = obs::escape_json(v.as_string());
      quoted.insert(quoted.begin(), '"');
      quoted.push_back('"');
      out = std::move(quoted);
      return true;
    }
    default:
      return false;
  }
}

bool fail(std::string& error, std::string message) {
  error = std::move(message);
  return false;
}

/// Finite number >= `min`; `name` feeds the 400 message. A token too
/// large for a double (1e999) reads as +inf and is refused here, before
/// it can reach a verdict, a cache key or a deadline cast.
bool read_number(const obs::JsonValue& v, const char* name, double min,
                 double& out, std::string& error) {
  if (!v.is_number()) return fail(error, std::string("\"") + name + "\" must be a number");
  const double d = v.as_double();
  if (!(d >= min)) {
    return fail(error, std::string("\"") + name + "\" must be >= " +
                           obs::json_number(min));
  }
  if (!std::isfinite(d)) {
    return fail(error, std::string("\"") + name + "\" must be finite");
  }
  out = d;
  return true;
}

bool read_int(const obs::JsonValue& v, const char* name, std::int64_t min,
              std::int64_t& out, std::string& error) {
  if (!v.is_number()) return fail(error, std::string("\"") + name + "\" must be a number");
  try {
    out = v.as_int64();
  } catch (const PreconditionError&) {
    return fail(error, std::string("\"") + name + "\" must be an integer");
  }
  if (out < min) {
    return fail(error, std::string("\"") + name + "\" must be >= " +
                           std::to_string(min));
  }
  return true;
}

/// Append the object bytes of `v` (a double's bit pattern, an integer).
template <typename T>
void append_bytes(std::string& key, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  key.append(bytes, sizeof(T));
}

bool parse_streams(const obs::JsonValue& v, msg::MessageSet& out,
                   std::string& error) {
  if (!v.is_array() || v.items().empty()) {
    return fail(error, "\"streams\" must be a non-empty array");
  }
  const auto items = v.items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const obs::JsonValue& item = items[i];
    // Prefix `message` with "streams[i]"; built only on the error path.
    const auto at = [&error, i](std::string_view message) {
      return fail(error, "streams[" + std::to_string(i) + "]" +
                             std::string(message));
    };
    if (!item.is_object()) return at(" must be an object");
    msg::SyncStream s;
    double period_ms = 0.0;
    double deadline_ms = 0.0;
    bool have_period = false;
    bool have_payload = false;
    for (const auto& [key, value] : item.members()) {
      if (key == "station") {
        std::int64_t station = 0;
        if (!read_int(value, "station", 0, station, error)) {
          return at(": " + error);
        }
        // station + 1 sizes the ring, so both must fit an int.
        constexpr int kStationLimit = std::numeric_limits<int>::max();
        if (station >= kStationLimit) {
          return at(": \"station\" must be < " +
                    std::to_string(kStationLimit));
        }
        s.station = static_cast<int>(station);
      } else if (key == "period_ms") {
        if (!read_number(value, "period_ms", 0.0, period_ms, error)) {
          return at(": " + error);
        }
        have_period = true;
      } else if (key == "payload_bits") {
        if (!read_number(value, "payload_bits", 0.0, s.payload_bits, error)) {
          return at(": " + error);
        }
        have_payload = true;
      } else if (key == "deadline_ms") {
        if (!read_number(value, "deadline_ms", 0.0, deadline_ms, error)) {
          return at(": " + error);
        }
      } else {
        return at(": unknown field \"" + std::string(key) + "\"");
      }
    }
    if (!have_period || !have_payload) {
      return at(" needs \"period_ms\" and \"payload_bits\"");
    }
    s.period = milliseconds(period_ms);
    s.relative_deadline = milliseconds(deadline_ms);
    // The remaining SyncStream::validate() rules, refused here with the
    // field's name: validate()'s own message cites a source file and line,
    // which is no business of the client. Checked after the unit
    // conversion, which can round a subnormal period to zero.
    if (!(s.period > 0.0)) return at(": \"period_ms\" must be > 0");
    if (s.relative_deadline > s.period) {
      return at(": \"deadline_ms\" must not exceed \"period_ms\"");
    }
    try {
      s.validate();  // a rule added there later is refused, not thrown
    } catch (const PreconditionError&) {
      return at(" is not a valid stream");
    }
    out.add(s);
  }
  return true;
}

bool parse_bandwidths(const obs::JsonValue& v, std::vector<double>& out,
                      std::string& error) {
  if (!v.is_array() || v.items().empty()) {
    return fail(error, "\"bandwidths_mbps\" must be a non-empty array");
  }
  out.clear();
  for (const obs::JsonValue& item : v.items()) {
    double bw = 0.0;
    if (!item.is_number() || !((bw = item.as_double()) > 0.0)) {
      return fail(error,
                  "\"bandwidths_mbps\" entries must be positive numbers");
    }
    if (!std::isfinite(bw)) {
      return fail(error, "\"bandwidths_mbps\" entries must be finite");
    }
    out.push_back(bw);
  }
  return true;
}

}  // namespace

const char* to_string(RequestType type) {
  switch (type) {
    case RequestType::kPing:
      return "ping";
    case RequestType::kStats:
      return "stats";
    case RequestType::kCheck:
      return "check";
    case RequestType::kFaultcheck:
      return "faultcheck";
    case RequestType::kAdvise:
      return "advise";
  }
  return "?";
}

bool parse_request(const obs::JsonValue& doc, Request& out,
                   std::string& error) {
  if (!doc.is_object()) {
    return fail(error, "request must be a JSON object");
  }
  // Pull the id first so even a failed parse can echo it.
  if (const obs::JsonValue* id = doc.find("id")) {
    if (!render_scalar(*id, out.id_token)) {
      return fail(error, "\"id\" must be a scalar");
    }
  }
  const obs::JsonValue* type = doc.find("type");
  if (!type) return fail(error, "missing \"type\"");
  if (!type->is_string()) return fail(error, "\"type\" must be a string");
  const std::string_view name = type->as_string();
  if (name == "ping") {
    out.type = RequestType::kPing;
  } else if (name == "stats") {
    out.type = RequestType::kStats;
  } else if (name == "check") {
    out.type = RequestType::kCheck;
  } else if (name == "faultcheck") {
    out.type = RequestType::kFaultcheck;
  } else if (name == "advise") {
    out.type = RequestType::kAdvise;
  } else {
    return fail(error, "unknown type \"" + std::string(name) +
                           "\" (ping|stats|check|faultcheck|advise)");
  }

  const bool is_check = out.type == RequestType::kCheck ||
                        out.type == RequestType::kFaultcheck;
  const bool is_advise = out.type == RequestType::kAdvise;
  const bool is_compute = is_check || is_advise;
  bool have_streams = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "id" || key == "type") continue;
    if (key == "client") {
      if (!value.is_string()) return fail(error, "\"client\" must be a string");
      out.client = value.as_string();
    } else if (is_compute && key == "deadline_ms") {
      if (!read_number(value, "deadline_ms", 0.0, out.deadline_ms, error)) {
        return false;
      }
      // The engine counts the deadline in uint64 nanoseconds.
      if (!(out.deadline_ms * 1e6 < kDeadlineNsLimit)) {
        return fail(error, "\"deadline_ms\" must be < " +
                               obs::json_number(kDeadlineNsLimit / 1e6));
      }
    } else if (is_check && key == "protocol") {
      if (!value.is_string() || !planner::parse_protocol(value.as_string())) {
        return fail(error, "\"protocol\" must be " +
                               planner::protocol_keys("|"));
      }
      out.check.protocol = value.as_string();
    } else if (is_check && key == "bandwidth_mbps") {
      if (!read_number(value, "bandwidth_mbps", 0.0, out.check.bandwidth_mbps,
                       error) ||
          out.check.bandwidth_mbps <= 0.0) {
        return error.empty()
                   ? fail(error, "\"bandwidth_mbps\" must be > 0")
                   : false;
      }
    } else if (is_check && key == "streams") {
      if (!parse_streams(value, out.check.set, error)) return false;
      have_streams = true;
    } else if (out.type == RequestType::kFaultcheck && key == "noise_ms") {
      if (!read_number(value, "noise_ms", 0.0, out.check.noise_ms, error)) {
        return false;
      }
    } else if (is_advise && key == "stations") {
      std::int64_t stations = 0;
      if (!read_int(value, "stations", 1, stations, error)) return false;
      out.advise.stations = static_cast<int>(stations);
    } else if (is_advise && key == "mean_period_ms") {
      if (!read_number(value, "mean_period_ms", 0.0,
                       out.advise.mean_period_ms, error) ||
          out.advise.mean_period_ms <= 0.0) {
        return error.empty()
                   ? fail(error, "\"mean_period_ms\" must be > 0")
                   : false;
      }
    } else if (is_advise && key == "period_ratio") {
      if (!read_number(value, "period_ratio", 1.0, out.advise.period_ratio,
                       error)) {
        return false;
      }
    } else if (is_advise && key == "bandwidths_mbps") {
      if (!parse_bandwidths(value, out.advise.bandwidths_mbps, error)) {
        return false;
      }
    } else if (is_advise && key == "sets") {
      std::int64_t sets = 0;
      if (!read_int(value, "sets", 1, sets, error)) return false;
      out.advise.sets = static_cast<int>(sets);
    } else if (is_advise && key == "seed") {
      if (!value.is_number()) return fail(error, "\"seed\" must be a number");
      try {
        out.advise.seed = value.as_uint64();
      } catch (const PreconditionError&) {
        return fail(error, "\"seed\" must be an unsigned integer");
      }
    } else {
      return fail(error, "unknown field \"" + std::string(key) +
                             "\" for type \"" + to_string(out.type) + "\"");
    }
  }
  if (is_check && !have_streams) {
    return fail(error, "\"streams\" is required for type \"" +
                           std::string(to_string(out.type)) + "\"");
  }
  return true;
}

std::string cache_key(const Request& request) {
  // Fixed-width bytes of the parsed values: a type byte, then (checks) a
  // protocol byte, the bandwidth's bit pattern, faultcheck's noise, and
  // per stream its station and three doubles; (advise) the profile and
  // each candidate bandwidth. Spelling is gone after parsing, and distinct
  // doubles have distinct bits, so two requests share a key exactly when
  // their parsed values are equal ("100" == 1e2, -0 != 0).
  std::string key;
  switch (request.type) {
    case RequestType::kPing:
    case RequestType::kStats:
      return {};
    case RequestType::kCheck:
    case RequestType::kFaultcheck: {
      const CheckQuery& check = request.check;
      key.reserve(2 + 2 * sizeof(double) +
                  check.set.size() * (sizeof(int) + 3 * sizeof(double)));
      key += static_cast<char>(request.type);
      key += static_cast<char>(
          planner::parse_protocol(check.protocol).value());
      append_bytes(key, check.bandwidth_mbps);
      if (request.type == RequestType::kFaultcheck) {
        append_bytes(key, check.noise_ms);
      }
      for (const auto& s : check.set.streams()) {
        append_bytes(key, s.station);
        append_bytes(key, s.period);
        append_bytes(key, s.payload_bits);
        append_bytes(key, s.relative_deadline);
      }
      return key;
    }
    case RequestType::kAdvise: {
      const AdviseQuery& advise = request.advise;
      key += static_cast<char>(request.type);
      append_bytes(key, advise.stations);
      append_bytes(key, advise.mean_period_ms);
      append_bytes(key, advise.period_ratio);
      append_bytes(key, advise.sets);
      append_bytes(key, advise.seed);
      for (double bw : advise.bandwidths_mbps) append_bytes(key, bw);
      return key;
    }
  }
  return {};
}

std::string success_response(std::string_view id_token, RequestType type,
                             bool cached, std::string_view result_json) {
  // Plain appends, byte for byte what a compact JsonWriter emits. Both
  // embedded tokens are valid JSON already: the id was rendered from a
  // parsed scalar, and a result is validated once, before it is cached.
  const std::string_view type_name = to_string(type);
  std::string out;
  out.reserve(80 + id_token.size() + type_name.size() + result_json.size());
  out += "{\"schema\":\"";
  out += kServeSchema;
  out += "\",\"id\":";
  out += id_token;
  out += ",\"type\":\"";
  out += type_name;
  out += "\",\"status\":200,\"cached\":";
  out += cached ? "true" : "false";
  out += ",\"result\":";
  out += result_json;
  out += '}';
  return out;
}

std::string error_response(std::string_view id_token, int status,
                           std::string_view error) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_raw(id_token.empty() ? "null" : id_token);
  w.key("status").value_int(status);
  w.key("error").value_string(error);
  w.end_object();
  return os.str();
}

std::string parse_error_response(std::size_t offset, std::string_view error) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_null();
  w.key("status").value_int(400);
  w.key("error").value_string(error);
  w.key("offset").value_uint(offset);
  w.end_object();
  return os.str();
}

std::string rate_limited_response(std::string_view id_token,
                                  std::uint64_t retry_after_ns) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_raw(id_token.empty() ? "null" : id_token);
  w.key("status").value_int(429);
  w.key("error").value_string("rate limit exceeded");
  w.key("retry_after_ms")
      .value_number(static_cast<double>(retry_after_ns) / 1e6);
  w.end_object();
  return os.str();
}

std::string timeout_response(std::string_view id_token, double elapsed_ms) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_raw(id_token.empty() ? "null" : id_token);
  w.key("status").value_int(504);
  w.key("error").value_string("deadline exceeded");
  w.key("elapsed_ms").value_number(elapsed_ms);
  w.end_object();
  return os.str();
}

std::string shed_response(std::string_view id_token,
                          std::uint64_t retry_after_ns) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.set_strict(true);
  w.begin_object();
  w.key("schema").value_string(kServeSchema);
  w.key("id").value_raw(id_token.empty() ? "null" : id_token);
  w.key("status").value_int(503);
  w.key("error").value_string("server overloaded, request shed");
  w.key("retry_after_ms")
      .value_number(static_cast<double>(retry_after_ns) / 1e6);
  w.end_object();
  return os.str();
}

}  // namespace tokenring::serve
