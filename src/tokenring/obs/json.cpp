#include "tokenring/obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <system_error>

#include "tokenring/common/checks.hpp"

namespace tokenring::obs {

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  std::string token(buf, res.ptr);
  // to_chars may emit bare "1e+30"-style tokens, which are valid JSON, but
  // never inf/nan (filtered above). Integral doubles render without a dot,
  // which JSON also accepts.
  return token;
}

void JsonWriter::newline_indent(std::size_t depth) {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < depth * static_cast<std::size_t>(indent_); ++i) {
    os_ << ' ';
  }
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    TR_EXPECTS_MSG(stack_.back().array,
                   "JSON object members need key() before each value");
    if (stack_.back().entries++) os_ << ',';
    newline_indent(stack_.size());
  }
}

void JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back(Frame{false, 0});
}

void JsonWriter::end_object() {
  TR_EXPECTS(!stack_.empty() && !stack_.back().array && !pending_key_);
  const bool had_entries = stack_.back().entries > 0;
  stack_.pop_back();
  if (had_entries) newline_indent(stack_.size());
  os_ << '}';
}

void JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back(Frame{true, 0});
}

void JsonWriter::end_array() {
  TR_EXPECTS(!stack_.empty() && stack_.back().array);
  const bool had_entries = stack_.back().entries > 0;
  stack_.pop_back();
  if (had_entries) newline_indent(stack_.size());
  os_ << ']';
}

JsonWriter& JsonWriter::key(std::string_view k) {
  TR_EXPECTS_MSG(!stack_.empty() && !stack_.back().array && !pending_key_,
                 "key() is only valid directly inside an object");
  if (stack_.back().entries++) os_ << ',';
  newline_indent(stack_.size());
  os_ << '"' << escape_json(k) << "\":";
  if (indent_ > 0) os_ << ' ';
  pending_key_ = true;
  return *this;
}

void JsonWriter::value_string(std::string_view v) {
  before_value();
  os_ << '"' << escape_json(v) << '"';
}

void JsonWriter::value_number(double v) {
  TR_EXPECTS_MSG(!strict_ || std::isfinite(v),
                 "strict JSON writer rejects non-finite numbers");
  before_value();
  os_ << json_number(v);
}

void JsonWriter::value_int(std::int64_t v) {
  before_value();
  os_ << v;
}

void JsonWriter::value_uint(std::uint64_t v) {
  before_value();
  os_ << v;
}

void JsonWriter::value_bool(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
}

void JsonWriter::value_null() {
  before_value();
  os_ << "null";
}

void JsonWriter::value_raw(std::string_view token) {
  TR_EXPECTS_MSG(!strict_ || is_valid_json(token),
                 "strict JSON writer rejects raw tokens that are not "
                 "themselves valid JSON");
  before_value();
  os_ << token;
}

// ---- document ------------------------------------------------------------------

namespace detail {

/// A node as the parser records it: offsets instead of pointers, because
/// the node array and the side buffer still grow while parsing.
struct JsonSlot {
  /// Scalars: byte offset of the token / payload. Containers: index of the
  /// first child in the node array.
  std::uint32_t begin = 0;
  /// Token or payload bytes; array elements; object members.
  std::uint32_t size = 0;
  JsonValue::Kind kind = JsonValue::Kind::kNull;
  /// Bool: the value. String: the payload is in `unescaped`.
  bool flag = false;
};

struct JsonDocument : std::enable_shared_from_this<JsonDocument> {
  /// Owned copy of the input; number tokens and escape-free strings view
  /// it.
  std::string text;
  /// Decoded payloads of strings that contain a backslash escape.
  std::string unescaped;
  /// Every node, each container's children contiguous; the root is last.
  std::vector<JsonValue> nodes;

  /// Turn the parser's slots into nodes, offsets into pointers.
  void materialize(const std::vector<JsonSlot>& slots) {
    nodes.resize(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const JsonSlot& slot = slots[i];
      JsonValue& node = nodes[i];
      node.kind_ = slot.kind;
      node.size_ = slot.size;
      node.doc_ = this;
      switch (slot.kind) {
        case JsonValue::Kind::kBool:
          node.bool_ = slot.flag;
          break;
        case JsonValue::Kind::kNumber:
          node.chars_ = text.data() + slot.begin;
          break;
        case JsonValue::Kind::kString:
          node.chars_ =
              (slot.flag ? unescaped.data() : text.data()) + slot.begin;
          break;
        case JsonValue::Kind::kArray:
        case JsonValue::Kind::kObject:
          node.children_ = nodes.data() + slot.begin;
          break;
        case JsonValue::Kind::kNull:
          break;
      }
    }
  }
};

}  // namespace detail

// ---- JsonValue ----------------------------------------------------------------

namespace {

bool is_container(JsonValue::Kind kind) {
  return kind == JsonValue::Kind::kArray || kind == JsonValue::Kind::kObject;
}

}  // namespace

JsonValue::JsonValue(const JsonValue& other)
    : size_(other.size_),
      kind_(other.kind_),
      bool_(other.bool_),
      doc_(other.doc_),
      owner_(other.owner_ || other.doc_ == nullptr
                 ? other.owner_
                 : other.doc_->shared_from_this()) {
  if (is_container(kind_)) {
    children_ = other.children_;
  } else {
    chars_ = other.chars_;
  }
}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this != &other) *this = JsonValue(other);
  return *this;
}

JsonValue::Member JsonValue::MemberRange::iterator::operator*() const {
  return Member{at_[0].text(), at_[1]};
}

bool JsonValue::as_bool() const {
  TR_EXPECTS_MSG(kind_ == Kind::kBool, "JSON value is not a boolean");
  return bool_;
}

double JsonValue::as_double() const {
  TR_EXPECTS_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  // from_chars rounds correctly, as glibc's strtod does, so a full match
  // is strtod's answer. Out of range it reports an error instead of
  // strtod's +-HUGE_VAL or rounded subnormal/zero; ask strtod for those.
  double out = 0.0;
  const char* end = chars_ + size_;
  const auto res = std::from_chars(chars_, end, out);
  if (res.ec == std::errc() && res.ptr == end) return out;
  return std::strtod(std::string(text()).c_str(), nullptr);
}

std::int64_t JsonValue::as_int64() const {
  TR_EXPECTS_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  std::int64_t out = 0;
  const char* end = chars_ + size_;
  const auto res = std::from_chars(chars_, end, out);
  TR_EXPECTS_MSG(res.ec == std::errc() && res.ptr == end,
                 "JSON number is not a representable integer: " +
                     std::string(text()));
  return out;
}

std::uint64_t JsonValue::as_uint64() const {
  TR_EXPECTS_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  std::uint64_t out = 0;
  const char* end = chars_ + size_;
  const auto res = std::from_chars(chars_, end, out);
  TR_EXPECTS_MSG(res.ec == std::errc() && res.ptr == end,
                 "JSON number is not a representable unsigned integer: " +
                     std::string(text()));
  return out;
}

std::string_view JsonValue::number_token() const {
  TR_EXPECTS_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return text();
}

std::string_view JsonValue::as_string() const {
  TR_EXPECTS_MSG(kind_ == Kind::kString, "JSON value is not a string");
  return text();
}

std::span<const JsonValue> JsonValue::items() const {
  TR_EXPECTS_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  return {children_, size_};
}

JsonValue::MemberRange JsonValue::members() const {
  TR_EXPECTS_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  return MemberRange(children_, size_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  TR_EXPECTS_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  const JsonValue* end = children_ + 2 * std::size_t{size_};
  for (const JsonValue* at = children_; at != end; at += 2) {
    if (at[0].text() == key) return at + 1;
  }
  return nullptr;
}

// ---- parsing / validation -----------------------------------------------------

namespace {

/// Append one Unicode code point as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_hex_digit(char c) {
  return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

using detail::JsonSlot;
using Kind = JsonValue::Kind;

/// Index-based recursive-descent parser; bounded depth. With kBuild ==
/// false it only validates (no allocation beyond the call stack), which is
/// what is_valid_json and the strict writer use on hot paths. With kBuild
/// it records one slot per node into `doc`: a container's children are
/// gathered on a stack while it is open and moved to the node array, next
/// to each other, when it closes. On failure pos_ is left at the offending
/// byte for the error report.
template <bool kBuild>
class Parser {
 public:
  Parser(std::string_view text, detail::JsonDocument* doc)
      : text_(text), doc_(doc) {}

  /// Parse the whole input; on success (build mode) the root slot is the
  /// last of `slots()`.
  bool run() {
    skip_ws();
    if (!value(0)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      error_ = "trailing garbage after JSON value";
      return false;
    }
    if constexpr (kBuild) nodes_.push_back(stack_.back());
    return true;
  }

  const std::vector<JsonSlot>& slots() const { return nodes_; }

  /// Fill the failure fields of `result` from where parsing stopped.
  void report(JsonParseResult& result) const {
    result.ok = false;
    result.error_offset = pos_;
    result.error = error_.empty() ? "malformed JSON" : error_;
  }

 private:
  static constexpr std::size_t kMaxDepth = 256;

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool consume(char c) {
    if (eof() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }
  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      error_ = "invalid literal";
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  void push(std::size_t begin, std::size_t size, Kind kind,
            bool flag = false) {
    if constexpr (kBuild) {
      stack_.push_back(JsonSlot{static_cast<std::uint32_t>(begin),
                                static_cast<std::uint32_t>(size), kind,
                                flag});
    }
  }

  /// Close the container whose children start at stack_[mark]: move them
  /// to the node array and leave one slot for the container itself.
  void close(std::size_t mark, Kind kind, std::size_t count) {
    if constexpr (kBuild) {
      const std::size_t first = nodes_.size();
      nodes_.insert(nodes_.end(), stack_.begin() + mark, stack_.end());
      stack_.resize(mark);
      push(first, count, kind);
    }
  }

  bool value(std::size_t depth) {
    if (depth > kMaxDepth) {
      error_ = "nesting deeper than 256 levels";
      return false;
    }
    if (eof()) {
      error_ = "unexpected end of input";
      return false;
    }
    switch (peek()) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"':
        return string();
      case 't':
        if (!literal("true")) return false;
        push(0, 0, Kind::kBool, true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        push(0, 0, Kind::kBool, false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        push(0, 0, Kind::kNull);
        return true;
      default:
        return number();
    }
  }

  bool object(std::size_t depth) {
    consume('{');
    skip_ws();
    const std::size_t mark = stack_.size();
    std::size_t count = 0;
    if (consume('}')) {
      close(mark, Kind::kObject, count);
      return true;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') {
        error_ = "expected object key";
        return false;
      }
      if (!string()) return false;
      skip_ws();
      if (!consume(':')) {
        error_ = "expected ':' after object key";
        return false;
      }
      skip_ws();
      if (!value(depth + 1)) return false;
      ++count;
      skip_ws();
      if (consume('}')) {
        close(mark, Kind::kObject, count);
        return true;
      }
      if (!consume(',')) {
        error_ = "expected ',' or '}' in object";
        return false;
      }
    }
  }

  bool array(std::size_t depth) {
    consume('[');
    skip_ws();
    const std::size_t mark = stack_.size();
    std::size_t count = 0;
    if (consume(']')) {
      close(mark, Kind::kArray, count);
      return true;
    }
    while (true) {
      skip_ws();
      if (!value(depth + 1)) return false;
      ++count;
      skip_ws();
      if (consume(']')) {
        close(mark, Kind::kArray, count);
        return true;
      }
      if (!consume(',')) {
        error_ = "expected ',' or ']' in array";
        return false;
      }
    }
  }

  /// Parse one string token. A string without escapes is recorded as a
  /// view of the input; the first backslash hands over to
  /// escaped_string, which decodes into the side buffer.
  bool string() {
    consume('"');
    const std::size_t start = pos_;
    while (!eof()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        push(start, pos_ - start, Kind::kString);
        ++pos_;
        return true;
      }
      if (c == '\\') return escaped_string(start);
      if (c < 0x20) {
        error_ = "raw control character in string";
        return false;
      }
      ++pos_;
    }
    error_ = "unterminated string";
    return false;
  }

  /// The rest of a string from its first backslash at pos_; the bytes
  /// from `start` up to it are plain. Build mode decodes the whole
  /// payload into the document's side buffer.
  bool escaped_string(std::size_t start) {
    std::string* decoded = nullptr;
    std::size_t begin = 0;
    if constexpr (kBuild) {
      decoded = &doc_->unescaped;
      begin = decoded->size();
      decoded->append(text_.substr(start, pos_ - start));
    }
    std::uint32_t pending_high = 0;  // pending high surrogate, 0 = none
    while (!eof()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        if (pending_high && decoded) append_utf8(*decoded, 0xFFFD);
        ++pos_;
        if (decoded) {
          push(begin, decoded->size() - begin, Kind::kString, true);
        }
        return true;
      }
      if (c < 0x20) {
        error_ = "raw control character in string";
        return false;
      }
      if (c == '\\') {
        ++pos_;
        if (eof()) {
          error_ = "unterminated escape";
          return false;
        }
        const char esc = text_[pos_++];
        if (esc == 'u') {
          std::uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (eof() || !is_hex_digit(text_[pos_])) {
              error_ = "\\u escape needs four hex digits";
              return false;
            }
            const char h = text_[pos_++];
            cp = cp * 16 +
                 static_cast<std::uint32_t>(
                     h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          if (decoded) {
            if (pending_high) {
              if (cp >= 0xDC00 && cp <= 0xDFFF) {
                append_utf8(*decoded, 0x10000 +
                                          ((pending_high - 0xD800) << 10) +
                                          (cp - 0xDC00));
              } else {
                append_utf8(*decoded, 0xFFFD);
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                  pending_high = cp;
                  continue;
                }
                append_utf8(*decoded, cp);
              }
              pending_high = 0;
            } else if (cp >= 0xD800 && cp <= 0xDBFF) {
              pending_high = cp;
            } else {
              // An unpaired low surrogate decodes to U+FFFD; everything
              // else is a plain code point.
              append_utf8(*decoded,
                          cp >= 0xDC00 && cp <= 0xDFFF ? 0xFFFD : cp);
            }
          }
          continue;
        }
        if (pending_high && decoded) {
          append_utf8(*decoded, 0xFFFD);
          pending_high = 0;
        }
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            if (decoded) *decoded += esc;
            break;
          case 'b':
            if (decoded) *decoded += '\b';
            break;
          case 'f':
            if (decoded) *decoded += '\f';
            break;
          case 'n':
            if (decoded) *decoded += '\n';
            break;
          case 'r':
            if (decoded) *decoded += '\r';
            break;
          case 't':
            if (decoded) *decoded += '\t';
            break;
          default:
            pos_ -= 1;  // point at the bad escape character
            error_ = "invalid escape character";
            return false;
        }
      } else {
        if (pending_high && decoded) {
          append_utf8(*decoded, 0xFFFD);
          pending_high = 0;
        }
        if (decoded) *decoded += static_cast<char>(c);
        ++pos_;
      }
    }
    error_ = "unterminated string";
    return false;
  }

  bool digits() {
    if (eof() || !is_digit(peek())) {
      error_ = "expected digits";
      return false;
    }
    while (!eof() && is_digit(peek())) ++pos_;
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    consume('-');
    if (consume('0')) {
      // leading zero must not be followed by more digits
      if (!eof() && is_digit(peek())) {
        error_ = "leading zero in number";
        return false;
      }
    } else if (!digits()) {
      error_ = "malformed number";
      return false;
    }
    if (consume('.') && !digits()) {
      error_ = "malformed number fraction";
      return false;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) {
        error_ = "malformed number exponent";
        return false;
      }
    }
    push(start, pos_ - start, Kind::kNumber);
    return true;
  }

  std::string_view text_;
  detail::JsonDocument* doc_;
  std::size_t pos_ = 0;
  std::string error_;
  /// Build mode: slots of the open containers' children, innermost last.
  std::vector<JsonSlot> stack_;
  /// Build mode: the node array, in its final order.
  std::vector<JsonSlot> nodes_;
};

}  // namespace

JsonParseResult parse_json(std::string_view text) {
  TR_EXPECTS_MSG(text.size() < (std::size_t{1} << 32),
                 "JSON documents are limited to 4 GiB");
  auto doc = std::make_shared<detail::JsonDocument>();
  doc->text.assign(text);
  Parser<true> parser(doc->text, doc.get());
  JsonParseResult result;
  if (!parser.run()) {
    parser.report(result);
    return result;
  }
  doc->materialize(parser.slots());
  result.ok = true;
  result.value = doc->nodes.back();
  return result;
}

JsonParseResult validate_json(std::string_view text) {
  Parser<false> parser(text, nullptr);
  JsonParseResult result;
  if (parser.run()) {
    result.ok = true;
  } else {
    parser.report(result);
  }
  return result;
}

bool is_valid_json(std::string_view text) {
  return Parser<false>(text, nullptr).run();
}

}  // namespace tokenring::obs
