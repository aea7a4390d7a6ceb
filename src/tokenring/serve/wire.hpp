// Wire format of the admission-control service (`tokenring.serve/1`).
//
// The daemon speaks line-delimited JSON: one request object per line in,
// one response object per line out, in request order per connection. The
// schema string follows the obs/ manifest convention
// (`tokenring.run_manifest/1`): bump the suffix on an incompatible change.
//
// Request:
//   {"type": "check" | "faultcheck" | "advise" | "ping" | "stats",
//    "id": <any scalar, echoed verbatim>,        // optional
//    "client": "ops-console",                    // optional rate-limit key
//    ...type-specific fields}
//
// Response envelope:
//   {"schema": "tokenring.serve/1", "id": <echo>, "type": "check",
//    "status": 200, "cached": false, "result": {...}}
// or, on failure,
//   {"schema": "tokenring.serve/1", "id": <echo>, "status": 400,
//    "error": "...", "offset": 17}               // offset: parse errors
//   {"schema": "tokenring.serve/1", "id": <echo>, "status": 429,
//    "error": "...", "retry_after_ms": 12.5}
//
// Parsing is strict: unknown fields are rejected with a 400 naming the
// field, so a typo'd "bandwith_mbps" fails loudly instead of silently
// running with the default.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tokenring/msg/message_set.hpp"
#include "tokenring/obs/json.hpp"

namespace tokenring::serve {

inline constexpr const char* kServeSchema = "tokenring.serve/1";

enum class RequestType { kPing, kStats, kCheck, kFaultcheck, kAdvise };

const char* to_string(RequestType type);

/// check / faultcheck: one explicit scenario against one protocol.
struct CheckQuery {
  /// Validated protocol key (planner::parse_protocol accepts it).
  std::string protocol = "fddi";
  double bandwidth_mbps = 100.0;
  msg::MessageSet set;
  /// faultcheck only: noise burst duration.
  double noise_ms = 1.0;
};

/// advise: a traffic profile and candidate bandwidths, mirroring the
/// `tokenring_tool advise` flags.
struct AdviseQuery {
  int stations = 100;
  double mean_period_ms = 100.0;
  double period_ratio = 10.0;
  std::vector<double> bandwidths_mbps = {4.0, 16.0, 100.0, 622.0};
  int sets = 50;
  std::uint64_t seed = 1;
};

struct Request {
  RequestType type = RequestType::kPing;
  /// Raw JSON token of the request's "id" member ("null" when absent);
  /// echoed verbatim so numeric ids round-trip without a double trip.
  std::string id_token = "null";
  /// Rate-limit key; empty means "use the connection's fallback id".
  std::string client;
  /// Compute types only: total time the client is willing to wait for
  /// this answer [milliseconds]; 0 = no deadline. Finite, and below 2^64
  /// nanoseconds. A request whose deadline expires before its compute
  /// starts is answered with a 504 instead of burning a Monte Carlo sweep
  /// nobody is waiting for.
  /// Deliberately NOT part of the cache key: the same query with a
  /// different patience is still the same query.
  double deadline_ms = 0.0;
  CheckQuery check;    // meaningful for kCheck / kFaultcheck
  AdviseQuery advise;  // meaningful for kAdvise
};

/// Interpret a parsed JSON document as a request. On failure returns
/// false and sets `error` to a message naming the offending field; `out`
/// still carries the id token (if one was readable) so the error response
/// can echo it.
bool parse_request(const obs::JsonValue& doc, Request& out,
                   std::string& error);

/// Canonical cache key for a compute request: two requests that differ
/// only in spelling (field order, "100" vs 1e2, explicit defaults) map to
/// the same key. The key is binary: the parsed values as fixed-width bytes
/// (a double's bit pattern, not its text). Empty for ping/stats, which are
/// never cached.
std::string cache_key(const Request& request);

/// Wrap a rendered result object into the success envelope. `id_token`
/// and `result_json` must each be one complete JSON value: they are
/// copied in unchecked (parse_request renders the id; the engine validates
/// a result once, before caching it).
std::string success_response(std::string_view id_token, RequestType type,
                             bool cached, std::string_view result_json);

/// Failure envelope; status is the HTTP-style code (400, 413, 429, 500).
std::string error_response(std::string_view id_token, int status,
                           std::string_view error);

/// 400 for a line that is not valid JSON, pointing at the byte offset
/// where parsing stopped.
std::string parse_error_response(std::size_t offset, std::string_view error);

/// 429 with the token bucket's back-off hint.
std::string rate_limited_response(std::string_view id_token,
                                  std::uint64_t retry_after_ns);

/// 504: the request's own deadline_ms expired before (or while) its
/// compute ran; elapsed_ms reports how long it actually waited.
std::string timeout_response(std::string_view id_token, double elapsed_ms);

/// 503: admission queue beyond the high-water mark, request shed before
/// any compute. retry_after_ms estimates when the backlog will clear.
std::string shed_response(std::string_view id_token,
                          std::uint64_t retry_after_ns);

}  // namespace tokenring::serve
