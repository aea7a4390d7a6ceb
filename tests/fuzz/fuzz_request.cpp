// libFuzzer target over the serve request pipeline's parse-and-respond
// path: parse_json -> parse_request -> cache_key + response builders.
//
// Invariants checked beyond "no crash":
//  * every response the daemon could build from attacker-controlled
//    input (success envelope, 400, 413, 429, 503, 504) is itself valid
//    JSON — a malformed id token or error string must never produce a
//    response line the client cannot parse;
//  * cache_key is deterministic for the parsed request (computed twice,
//    compared), since a flaky key would split or poison the result cache;
//  * a request that parses carries only finite doubles (a 1e999 that
//    reads as +inf must be refused, not computed or cached);
//  * a refusal never carries a precondition's text, which cites the
//    server's source path and line.
//
// No schedulability compute runs here: the target covers exactly the
// bytes-to-structured-refusal surface, which is what hostile input can
// reach without first being a well-formed admission query.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "tokenring/obs/json.hpp"
#include "tokenring/serve/wire.hpp"

namespace {

bool all_finite(const tokenring::serve::Request& request) {
  bool finite = std::isfinite(request.deadline_ms) &&
                std::isfinite(request.check.bandwidth_mbps) &&
                std::isfinite(request.check.noise_ms) &&
                std::isfinite(request.advise.mean_period_ms) &&
                std::isfinite(request.advise.period_ratio);
  for (const auto& s : request.check.set.streams()) {
    finite = finite && std::isfinite(s.period) &&
             std::isfinite(s.payload_bits) &&
             std::isfinite(s.relative_deadline);
  }
  for (double bw : request.advise.bandwidths_mbps) {
    finite = finite && std::isfinite(bw);
  }
  return finite;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace serve = tokenring::serve;
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  const auto parsed = tokenring::obs::parse_json(text);
  if (!parsed.ok) {
    if (!tokenring::obs::is_valid_json(
            serve::parse_error_response(parsed.error_offset, parsed.error))) {
      __builtin_trap();
    }
    return 0;
  }

  serve::Request request;
  std::string error;
  const bool ok = serve::parse_request(parsed.value, request, error);

  const std::string responses[] = {
      serve::error_response(request.id_token, ok ? 500 : 400,
                            ok ? "computed nothing" : error),
      serve::rate_limited_response(request.id_token, 123'456'789),
      serve::shed_response(request.id_token, 25'000'000),
      serve::timeout_response(request.id_token, 12.5),
      serve::success_response(request.id_token, request.type, false,
                              "{\"message\":\"pong\"}"),
  };
  for (const std::string& response : responses) {
    if (!tokenring::obs::is_valid_json(response)) __builtin_trap();
  }

  if (ok && serve::cache_key(request) != serve::cache_key(request)) {
    __builtin_trap();
  }
  if (ok && !all_finite(request)) __builtin_trap();
  if (!ok && (error.find("precondition failed") != std::string::npos ||
              error.find(".cpp:") != std::string::npos)) {
    __builtin_trap();
  }
  return 0;
}
