// libFuzzer target over the serve front end's one framing loop: ConnFsm
// driven over FaultyIo, with the fault plan and the connection limits
// taken from the first bytes of the input and the rest sent as the peer's
// byte stream.
//
// Invariants checked beyond "no crash":
//  * the machine always finishes within a bound proportional to the input
//    (no plan can wedge it: every injected EAGAIN only ends one edge);
//  * the bytes written are a prefix of the reference answer for the whole
//    stream — the echo of every framed line, in order, then at most one
//    413, last — so faults can truncate the conversation but never
//    reorder, duplicate or corrupt it;
//  * a plan without resets reproduces the reference answer exactly, and
//    ends the connection for the reference's reason.
//
// Completions are either answered inline (the cache-hit shape) or held
// and released in reverse order after each edge (compute finishing out of
// order on the pool), chosen by the input.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tokenring/obs/json.hpp"
#include "tokenring/serve/conn_fsm.hpp"
#include "tokenring/serve/transport.hpp"
#include "tokenring/serve/wire.hpp"

namespace {

namespace serve = tokenring::serve;

constexpr std::size_t kHeader = 10;

std::string echo(std::string_view line) {
  return "{\"echo\":\"" + tokenring::obs::escape_json(std::string(line)) +
         "\"}";
}

/// The answer to `stream` under the framing contract (conn_fsm.hpp), and
/// whether it ends with the 413.
std::pair<std::string, bool> reference_answer(std::string_view stream,
                                              std::size_t max_line) {
  std::string out;
  const auto answer_413 = [&] {
    out += serve::error_response(
        "", 413,
        "request line exceeds " + std::to_string(max_line) + " bytes");
    out += '\n';
    return std::make_pair(out, true);
  };
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = stream.find('\n', start);
    if (nl == std::string_view::npos) break;
    std::string_view line = stream.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    start = nl + 1;
    if (line.empty()) continue;
    if (line.size() > max_line) return answer_413();
    out += echo(line);
    out += '\n';
  }
  // A trailing fragment is dropped at EOF unless it is already longer
  // than any line could be (one byte of slack for a pending "\r\n").
  const std::string_view tail = stream.substr(start);
  if (tail.size() > max_line &&
      !(tail.size() == max_line + 1 && tail.back() == '\r')) {
    return answer_413();
  }
  return {out, false};
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < kHeader) return 0;
  serve::TransportFaultPlan plan;
  plan.max_read_chunk = data[0] % 8;
  plan.max_write_chunk = data[1] % 8;
  plan.eintr_per_op = data[2] % 4;
  // 1 would end every edge before a byte moves; the owner would never
  // see progress, which is a stall the timer wheel handles, not framing.
  plan.eagain_every = data[3] % 5 == 0 ? 0 : 1 + data[3] % 5;
  if (data[4] & 0x80) plan.reset_read_after = data[5];
  if (data[4] & 0x40) plan.reset_write_after = data[6];
  plan.seed = data[7];
  serve::ConnectionLimits limits;
  limits.max_line = 1 + static_cast<std::size_t>(data[8]) * 4;
  const bool deferred = (data[9] & 1) != 0;

  const std::string stream(reinterpret_cast<const char*>(data) + kHeader,
                           size - kHeader);
  serve::FaultyIo io(stream, plan);
  serve::ConnFsm fsm(io, limits, "fuzz");

  std::vector<std::pair<std::string, std::uint64_t>> held;
  const serve::ConnFsm::Submit submit = [&](std::string_view line,
                                            std::uint64_t slot) {
    if (deferred) {
      held.emplace_back(std::string(line), slot);
    } else {
      fsm.complete(slot, echo(line));
    }
  };
  const std::size_t max_edges = 64 * (stream.size() + 64);
  for (std::size_t edges = 0; !fsm.finished(); ++edges) {
    if (edges == max_edges) __builtin_trap();  // wedged
    fsm.on_readable(submit);
    while (!held.empty()) {
      fsm.complete(held.back().second, echo(held.back().first));
      held.pop_back();
    }
    fsm.on_writable();
  }

  const auto [expected, oversized] =
      reference_answer(stream, limits.max_line);
  const std::string& written = io.output();
  if (written.size() > expected.size() ||
      expected.compare(0, written.size(), written) != 0) {
    __builtin_trap();  // reordered, duplicated or corrupted output
  }
  const bool faulted = plan.reset_read_after != plan.kNever ||
                       plan.reset_write_after != plan.kNever;
  if (!faulted) {
    if (written != expected) __builtin_trap();
    const auto end = oversized ? serve::ConnectionEnd::kOversized
                               : serve::ConnectionEnd::kPeerClosed;
    if (fsm.end() != end) __builtin_trap();
  }
  return 0;
}
