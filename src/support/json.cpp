#include "support/json.h"

#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "support/strings.h"

namespace lrt {

void JsonWriter::value(double number) {
  separate();
  if (std::isfinite(number)) {
    append_double(out_, number);
  } else {
    out_ += "null";  // JSON has no Inf/NaN
  }
}

void JsonWriter::flush() {
  assert(sink_ != nullptr && "flush() needs a sink");
  sink_->write(out_);
  out_.clear();
}

void JsonWriter::write_escape(unsigned char c) {
  switch (c) {
    case '"': out_ += "\\\""; break;
    case '\\': out_ += "\\\\"; break;
    case '\n': out_ += "\\n"; break;
    case '\r': out_ += "\\r"; break;
    case '\t': out_ += "\\t"; break;
    default: {
      static constexpr char kHex[] = "0123456789abcdef";
      out_ += "\\u00";
      out_ += kHex[c >> 4];
      out_ += kHex[c & 0xf];
    }
  }
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    // Most members differ from `key` in length or first byte already.
    if (name.size() != key.size() ||
        (!key.empty() && name.front() != key.front()))
      continue;
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Recursive-descent JSON reader over a string_view.
///
/// The elements of an open array or object are parsed in place into a
/// scratch vector owned by the parser, one per nesting depth, and moved
/// into the node's vector in one allocation when the container closes:
/// no node is moved by regrowth, and the scratch capacity is reused by
/// every later container at the same depth. That allocation is rounded
/// up to a power of two elements, the capacity push_back growth leaves:
/// exact sizes spread a DOM over many distinct chunk sizes that glibc's
/// malloc reuses poorly from one request to the next (lrtd's peak RSS
/// grew 4% with them). The recursion returns plain bools; the one error
/// is recorded where it happens and turned into a Status once.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> run() {
    JsonValue value;
    if (parse_value(value, /*depth=*/0)) {
      skip_whitespace();
      if (pos_ == text_.size()) return value;
      fail("trailing characters after document");
    }
    return ParseError("json: " + std::string(error_) + " at offset " +
                      std::to_string(pos_));
  }

 private:
  static constexpr int kMaxDepth = 128;

  /// Records the error at the current offset; always false.
  bool fail(std::string_view message) {
    error_ = message;
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_digits() {
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  }

  bool expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal)
      return fail("invalid literal");
    pos_ += literal.size();
    return true;
  }

  /// The scratch vector of the one container open at `depth`. Nested
  /// parses may grow the outer vector, which moves the inner vectors but
  /// not their elements: element references stay valid, references to
  /// an inner vector are re-fetched.
  template <typename T>
  static std::vector<T>& scratch(std::vector<std::vector<T>>& stacks,
                                 int depth) {
    const auto index = static_cast<std::size_t>(depth);
    if (stacks.size() <= index) stacks.resize(index + 1);
    return stacks[index];
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return expect_literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return expect_literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return expect_literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_whitespace();
    if (consume('}')) return true;
    const bool ok = parse_members(depth);
    auto& members = scratch(members_, depth);
    if (ok) {
      out.object.reserve(std::bit_ceil(members.size()));
      out.object.assign(std::make_move_iterator(members.begin()),
                        std::make_move_iterator(members.end()));
    }
    members.clear();
    return ok;
  }

  bool parse_members(int depth) {
    while (true) {
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      auto& member = scratch(members_, depth).emplace_back();
      if (!parse_string(member.first)) return false;
      skip_whitespace();
      if (!consume(':')) return fail("expected ':'");
      if (!parse_value(member.second, depth + 1)) return false;
      skip_whitespace();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_whitespace();
    if (consume(']')) return true;
    const bool ok = parse_elements(depth);
    auto& elements = scratch(elements_, depth);
    if (ok) {
      out.array.reserve(std::bit_ceil(elements.size()));
      out.array.assign(std::make_move_iterator(elements.begin()),
                       std::make_move_iterator(elements.end()));
    }
    elements.clear();
    return ok;
  }

  bool parse_elements(int depth) {
    while (true) {
      if (!parse_value(scratch(elements_, depth).emplace_back(), depth + 1))
        return false;
      skip_whitespace();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const std::size_t run = json_verbatim_run(text_.substr(pos_));
      out.append(text_.data() + pos_, run);
      pos_ += run;
      if (pos_ == text_.size()) break;
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c != '\\') return fail("unescaped control character in string");
      ++pos_;
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(code)) return false;
          append_utf8(out, code);
          break;
        }
        default: return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4U;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape");
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0U | (code >> 6U));
      out += static_cast<char>(0x80U | (code & 0x3FU));
    } else {
      out += static_cast<char>(0xE0U | (code >> 12U));
      out += static_cast<char>(0x80U | ((code >> 6U) & 0x3FU));
      out += static_cast<char>(0x80U | (code & 0x3FU));
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    consume('-');
    if (pos_ >= text_.size() || !is_digit(text_[pos_]))
      return fail("invalid number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      skip_digits();
    }
    if (consume('.')) {
      if (pos_ >= text_.size() || !is_digit(text_[pos_]))
        return fail("invalid fraction");
      skip_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || !is_digit(text_[pos_]))
        return fail("invalid exponent");
      skip_digits();
    }
    out.kind = JsonValue::Kind::kNumber;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, out.number);
    if (ec != std::errc() || end != last) {
      // from_chars reports overflow and underflow without a value; strtod
      // yields the infinity, zero or subnormal the parser always gave.
      out.number = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string_view error_;
  std::vector<std::vector<JsonValue>> elements_;
  std::vector<std::vector<std::pair<std::string, JsonValue>>> members_;
};

}  // namespace

Result<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).run();
}

std::string JsonPath::str() const {
  std::string out;
  append_to(out);
  return out;
}

void JsonPath::append_to(std::string& out) const {
  if (parent_ != nullptr) parent_->append_to(out);
  if (index_ != kNoIndex) {
    out += '[';
    out += std::to_string(index_);
    out += ']';
    return;
  }
  if (!out.empty()) out += '.';
  out += name_;
}

Result<const JsonValue*> json_member(const JsonValue& object,
                                     std::string_view key,
                                     const JsonPath& where) {
  if (!object.is_object()) {
    return InvalidArgumentError(where.str() + " must be an object");
  }
  const JsonValue* member = object.find(key);
  if (member == nullptr) {
    return InvalidArgumentError(where.member(key).str() + " is missing");
  }
  return member;
}

Result<std::string> json_member_string(const JsonValue& object,
                                       std::string_view key,
                                       const JsonPath& where) {
  LRT_ASSIGN_OR_RETURN(const JsonValue* member,
                       json_member(object, key, where));
  if (!member->is_string()) {
    return InvalidArgumentError(where.member(key).str() +
                                " must be a string");
  }
  return member->string;
}

Result<std::int64_t> json_member_int(const JsonValue& object,
                                     std::string_view key,
                                     const JsonPath& where) {
  LRT_ASSIGN_OR_RETURN(const JsonValue* member,
                       json_member(object, key, where));
  return json_to_int(*member, where.member(key));
}

Result<double> json_member_double(const JsonValue& object,
                                  std::string_view key,
                                  const JsonPath& where) {
  LRT_ASSIGN_OR_RETURN(const JsonValue* member,
                       json_member(object, key, where));
  if (!member->is_number()) {
    return InvalidArgumentError(where.member(key).str() +
                                " must be a number");
  }
  return member->number;
}

Result<bool> json_member_bool(const JsonValue& object, std::string_view key,
                              const JsonPath& where) {
  LRT_ASSIGN_OR_RETURN(const JsonValue* member,
                       json_member(object, key, where));
  if (member->kind != JsonValue::Kind::kBool) {
    return InvalidArgumentError(where.member(key).str() +
                                " must be a boolean");
  }
  return member->boolean;
}

Result<std::int64_t> json_to_int(const JsonValue& value,
                                 const JsonPath& where) {
  if (!value.is_number()) {
    return InvalidArgumentError(where.str() + " must be a number");
  }
  const double number = value.number;
  // Exactly representable int64 doubles only; 2^63 itself overflows.
  if (number != std::floor(number) || number < -9.2233720368547758e18 ||
      number >= 9.2233720368547758e18) {
    return InvalidArgumentError(where.str() + " must be an integer");
  }
  return static_cast<std::int64_t>(number);
}

Status json_check_schema(const JsonValue& object, std::int64_t version,
                         const JsonPath& where) {
  LRT_ASSIGN_OR_RETURN(const std::int64_t seen,
                       json_member_int(object, "schema", where));
  if (seen != version) {
    return InvalidArgumentError(
        where.str() + ".schema " + std::to_string(seen) +
        " is not supported (expected " + std::to_string(version) + ")");
  }
  return Status::Ok();
}

}  // namespace lrt
