// Minimal JSON emission and validation for the observability layer.
//
// JsonWriter is a streaming writer with automatic comma/colon handling and
// optional pretty-printing; it backs the JSONL trace sink and the run
// manifest. parse_json reads one document into a flat node array (the serve
// daemon's request decoder); validate_json and is_valid_json run the same
// parser without building nodes, so all three agree on every input.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tokenring::obs {

/// Escape a UTF-8 string for embedding between JSON double quotes: `"` and
/// `\` are backslash-escaped, control characters become \b \f \n \r \t or
/// \u00XX, and multi-byte UTF-8 sequences pass through unchanged.
std::string escape_json(std::string_view s);

/// Render a double as a JSON number token (shortest round-trip form).
/// Non-finite values have no JSON representation and render as null.
std::string json_number(double v);

/// Streaming JSON writer. Call begin_object/begin_array, key (inside
/// objects), and the value_* methods; commas and newlines are inserted
/// automatically. With indent == 0 the output is a single compact line
/// (JSONL); with indent > 0 nested containers are pretty-printed.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, int indent = 0)
      : os_(os), indent_(indent) {}

  /// Strict mode, for wire formats where a silently degraded document is
  /// worse than a failed request: value_number with a non-finite value and
  /// value_raw with a token that is not itself valid JSON throw
  /// PreconditionError instead of emitting "null" / unvalidated bytes.
  /// (Strings are always safe: key/value_string escape every control
  /// character.) Off by default so manifest emission keeps rendering
  /// non-finite metrics as null.
  void set_strict(bool strict) { strict_ = strict; }
  bool strict() const { return strict_; }

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emit the key of the next key/value pair; must be inside an object.
  JsonWriter& key(std::string_view k);

  void value_string(std::string_view v);
  void value_number(double v);
  void value_int(std::int64_t v);
  void value_uint(std::uint64_t v);
  void value_bool(bool v);
  void value_null();
  /// Emit a pre-rendered JSON token verbatim (caller guarantees validity).
  void value_raw(std::string_view token);

  /// Depth of open containers (0 when the document is complete).
  std::size_t depth() const { return stack_.size(); }

 private:
  struct Frame {
    bool array = false;
    std::size_t entries = 0;
  };

  /// Comma/indent bookkeeping before any value token.
  void before_value();
  void newline_indent(std::size_t depth);

  std::ostream& os_;
  int indent_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;
  bool strict_ = false;
};

namespace detail {
struct JsonDocument;
}  // namespace detail

/// One node of a parsed JSON document. parse_json lays every node of a
/// document out in one contiguous array, children of a container next to
/// each other; the document also owns a copy of the input text, and
/// number and string nodes are views into that copy (strings with escapes
/// point into a side buffer of decoded bytes instead). Numbers keep their
/// raw source token so 64-bit integers (seeds) round-trip without passing
/// through a double.
///
/// A JsonValue copied out of a document (the root in JsonParseResult, or
/// any node copied by value) shares ownership of the document, so it stays
/// valid after the JsonParseResult is gone. References and pointers handed
/// out by find/items/members point into the document and live as long as
/// the value they came from.
///
/// Accessors check the kind and throw PreconditionError on mismatch, so a
/// request handler reading the wrong shape fails with a message rather
/// than garbage.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  /// One object member; both halves view the document.
  struct Member {
    std::string_view key;
    const JsonValue& value;
  };

  /// Object members in source order: a key node and its value node sit
  /// next to each other in the document's node array.
  class MemberRange {
   public:
    class iterator {
     public:
      explicit iterator(const JsonValue* at) : at_(at) {}
      Member operator*() const;
      iterator& operator++() {
        at_ += 2;
        return *this;
      }
      bool operator==(const iterator& other) const = default;

     private:
      const JsonValue* at_;
    };

    MemberRange(const JsonValue* first, std::size_t count)
        : first_(first), count_(count) {}
    iterator begin() const { return iterator(first_); }
    iterator end() const { return iterator(first_ + 2 * count_); }
    std::size_t size() const { return count_; }

   private:
    const JsonValue* first_;
    std::size_t count_;
  };

  JsonValue() = default;
  JsonValue(const JsonValue& other);
  JsonValue& operator=(const JsonValue& other);
  JsonValue(JsonValue&&) noexcept = default;
  JsonValue& operator=(JsonValue&&) noexcept = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const;
  /// The number as a double, bit-identical to strtod on the token (read
  /// with std::from_chars; strtod only when the token overflows or
  /// underflows a double).
  double as_double() const;
  /// Integer value; requires a number whose token is integral and in
  /// range (no silent truncation of 1.5 or 2^64).
  std::int64_t as_int64() const;
  std::uint64_t as_uint64() const;
  /// Raw source token of a number ("1e-3", "42"), for exact round-trips.
  std::string_view number_token() const;
  /// Decoded string payload (escapes resolved, UTF-8).
  std::string_view as_string() const;
  std::span<const JsonValue> items() const;  // array elements
  MemberRange members() const;                // object members, in order
  /// Object member lookup (first match); nullptr when absent.
  const JsonValue* find(std::string_view key) const;

 private:
  friend struct detail::JsonDocument;

  std::string_view text() const { return {chars_, size_}; }

  union {
    const char* chars_ = nullptr;   // number token / string payload
    const JsonValue* children_;     // first child (object: first key)
  };
  /// Token or payload bytes; array elements; object members.
  std::uint32_t size_ = 0;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  /// The document this node lives in; null for a default-constructed
  /// value.
  const detail::JsonDocument* doc_ = nullptr;
  /// Set on values copied out of the document, which keep it alive.
  std::shared_ptr<const detail::JsonDocument> owner_;
};

/// Outcome of parse_json / validate_json. On failure `error_offset` is the
/// byte offset into the input where parsing stopped — exactly what a
/// malformed-request 400 needs to point the client at its bug.
struct JsonParseResult {
  bool ok = false;
  JsonValue value;                  // valid only when ok
  std::size_t error_offset = 0;
  std::string error;                // short human-readable reason

  explicit operator bool() const { return ok; }
};

/// Parse exactly one complete JSON value (optional surrounding
/// whitespace, no trailing garbage). Same strictness as is_valid_json:
/// no raw control characters in strings, numbers per RFC 8259, bounded
/// nesting depth. \uXXXX escapes are decoded to UTF-8 (surrogate pairs
/// combined; an unpaired surrogate decodes to U+FFFD, matching the
/// validator's acceptance of any hex quad).
JsonParseResult parse_json(std::string_view text);

/// Validation without keeping the document: parse_json minus the value,
/// with the same diagnostics (error text and byte offset) for every input.
JsonParseResult validate_json(std::string_view text);

/// True iff `text` is exactly one complete JSON value (with optional
/// surrounding whitespace). Strict: no trailing garbage, no unescaped
/// control characters in strings, numbers per RFC 8259.
bool is_valid_json(std::string_view text);

}  // namespace tokenring::obs
