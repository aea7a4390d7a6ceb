// libFuzzer target over the strict JSON parser (obs::parse_json).
//
// The parser is the outermost attacker-controlled surface of the serve
// daemon: every byte a client sends reaches it before any schema check.
// The target asserts, beyond "no crash":
//  * a successful parse yields a document whose full traversal stays in
//    bounds (no dangling child pointers, depth respected);
//  * a failed parse reports an error offset inside (or just past) the
//    input, so 400 responses never point outside the request line;
//  * validate_json (the parser without the document) agrees with
//    parse_json on every input: same verdict, same error offset and text.
//
// Built two ways (see CMakeLists.txt): with -fsanitize=fuzzer under
// clang in CI, and with the standalone corpus-replay driver everywhere
// else, where the same function doubles as a regression test over
// tests/fuzz/corpus/.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "tokenring/obs/json.hpp"

namespace {

/// Walk every node; returns the node count so the walk cannot be
/// optimized away.
std::size_t walk(const tokenring::obs::JsonValue& v) {
  std::size_t nodes = 1;
  switch (v.kind()) {
    case tokenring::obs::JsonValue::Kind::kArray:
      for (const auto& item : v.items()) nodes += walk(item);
      break;
    case tokenring::obs::JsonValue::Kind::kObject:
      for (const auto& [key, value] : v.members()) {
        nodes += key.size() ? 1 : 0;
        nodes += walk(value);
      }
      break;
    case tokenring::obs::JsonValue::Kind::kString:
      nodes += v.as_string().size() ? 1 : 0;
      break;
    case tokenring::obs::JsonValue::Kind::kNumber:
      nodes += v.number_token().size() ? 1 : 0;
      break;
    default:
      break;
  }
  return nodes;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const auto result = tokenring::obs::parse_json(text);
  const auto validated = tokenring::obs::validate_json(text);
  if (validated.ok != result.ok ||
      validated.error_offset != result.error_offset ||
      validated.error != result.error) {
    __builtin_trap();  // the two modes of the parser disagree
  }
  if (result.ok) {
    volatile std::size_t sink = walk(result.value);
    (void)sink;
  } else if (result.error_offset > size) {
    __builtin_trap();  // error offset escaped the input
  }
  return 0;
}
