// A minimal JSON writer for exporting analysis reports to tooling.
// Streaming, allocation-light, and strict about structure (asserts on
// misuse in debug builds); values are escaped per RFC 8259.
#ifndef LRT_SUPPORT_JSON_H_
#define LRT_SUPPORT_JSON_H_

#include <bit>
#include <cassert>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/status.h"

namespace lrt {

/// Length of the leading run of `text` that a JSON string carries
/// verbatim: bytes other than '"', '\\' and the control characters. The
/// writer's escaping and the parser's string scan share it; it tests
/// eight bytes per step.
inline std::size_t json_verbatim_run(std::string_view text) {
  std::size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    constexpr std::uint64_t kHighs = 0x8080808080808080ull;
    for (; i + 8 <= text.size(); i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, text.data() + i, sizeof word);
      const std::uint64_t quote = word ^ (kOnes * '"');
      const std::uint64_t backslash = word ^ (kOnes * '\\');
      // The high bit of each byte below 0x20 or equal to '"' or '\\'. A
      // borrow can flag bytes above a hit, never below one, so the
      // lowest flag is exact.
      const std::uint64_t hits = (((word - kOnes * 0x20) & ~word) |
                                  ((quote - kOnes) & ~quote) |
                                  ((backslash - kOnes) & ~backslash)) &
                                 kHighs;
      if (hits != 0) {
        return i + static_cast<std::size_t>(std::countr_zero(hits)) / 8;
      }
    }
  }
  for (; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c < 0x20 || c == '"' || c == '\\') break;
  }
  return i;
}

/// Receives a JsonWriter's output in pieces, in order, instead of the
/// writer keeping the whole document (see JsonWriter(JsonSink&)).
class JsonSink {
 public:
  virtual ~JsonSink() = default;
  virtual void write(std::string_view chunk) = 0;
};

/// Usage:
///   JsonWriter json;
///   json.begin_object();
///   json.key("name"); json.value("u1");
///   json.key("srg");  json.value(0.97);
///   json.key("hosts");
///   json.begin_array(); json.value(1); json.value(2); json.end_array();
///   json.end_object();
///   std::string text = std::move(json).str();
///
/// The token members are inline: a canonical config document is tens of
/// thousands of tokens, so the per-call cost, not the bytes, dominates.
class JsonWriter {
 public:
  JsonWriter() = default;
  /// A writer that hands its output to `sink` in chunks of about
  /// kChunkBytes as containers close, so a document can be consumed
  /// (hashed) without being materialized. Call flush() after the last
  /// token; str() is not available.
  explicit JsonWriter(JsonSink& sink) : sink_(&sink) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  /// Emits an object key; must be followed by exactly one value or
  /// container.
  void key(std::string_view name) {
    assert(!after_key_ && "key() must be followed by a value");
    if (need_comma_) out_ += ',';
    out_ += '"';
    write_escaped(name);
    out_.append("\":", 2);
    need_comma_ = false;
    after_key_ = true;
  }

  void value(std::string_view text) {
    separate();
    out_ += '"';
    write_escaped(text);
    out_ += '"';
  }
  void value(const char* text) { value(std::string_view(text)); }
  void value(double number);
  void value(std::int64_t number) {
    separate();
    char buffer[24];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, number);
    out_.append(buffer, static_cast<std::size_t>(result.ptr - buffer));
  }
  void value(int number) { value(static_cast<std::int64_t>(number)); }
  void value(std::size_t number) {
    value(static_cast<std::int64_t>(number));
  }
  void value(bool flag) {
    separate();
    if (flag) {
      out_.append("true", 4);
    } else {
      out_.append("false", 5);
    }
  }
  void null() {
    separate();
    out_.append("null", 4);
  }
  /// Embeds `json` — one pre-serialized JSON value — verbatim where a
  /// value is expected (nesting a codec's document inside an envelope).
  /// The caller vouches for its well-formedness.
  void raw(std::string_view json) {
    separate();
    out_ += json;
  }

  /// The document; the writer is spent afterwards.
  [[nodiscard]] std::string str() && {
    assert(sink_ == nullptr && "a streaming writer has no document");
    assert(depth_ == 0 && "unclosed container");
    assert(!after_key_ && "dangling key");
    return std::move(out_);
  }
  /// Hands the bytes not yet written to the sink (streaming writers).
  void flush();

  static constexpr std::size_t kChunkBytes = 4096;

 private:
  /// Before each value: the comma that separates it from its predecessor.
  void separate() {
    if (need_comma_) out_ += ',';
    need_comma_ = depth_ != 0;
    after_key_ = false;
  }
  void open(char bracket) {
    separate();
    out_ += bracket;
    need_comma_ = false;
    ++depth_;
  }
  void close(char bracket) {
    assert(depth_ > 0);
    --depth_;
    out_ += bracket;
    need_comma_ = depth_ != 0;
    if (sink_ != nullptr && out_.size() >= kChunkBytes) flush();
  }
  /// Appends `text` with RFC 8259 escapes; unescaped runs in one append.
  void write_escaped(std::string_view text) {
    while (true) {
      const std::size_t run = json_verbatim_run(text);
      out_.append(text.data(), run);
      if (run == text.size()) return;
      write_escape(static_cast<unsigned char>(text[run]));
      text.remove_prefix(run + 1);
    }
  }
  void write_escape(unsigned char c);

  std::string out_;
  JsonSink* sink_ = nullptr;
  /// Open containers (for the misuse asserts).
  int depth_ = 0;
  /// The next value or key follows an element of the same container.
  bool need_comma_ = false;
  bool after_key_ = false;
};

/// A parsed JSON document node. Numbers are doubles (all the JSON this
/// library writes stays within double precision); object members keep
/// their source order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member by key, or nullptr (also for non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Strict RFC 8259 parser for round-tripping this library's own output
/// (full grammar, `\uXXXX` escapes decoded to UTF-8, trailing garbage
/// rejected). Returns kParse errors with a byte offset on malformed
/// input.
[[nodiscard]] Result<JsonValue> parse_json(std::string_view text);

/// Where a decoder stands in a document ("spec.tasks[3].inputs[1]"): a
/// chain of steps that each point at their parent, spelled out by str()
/// only when an error message names it, so a successful decode composes
/// no path strings. A step must not outlive its parent: keep roots in
/// named locals and derive steps from them with member()/item().
class JsonPath {
 public:
  // Implicit: every `where` string of the accessors below is a root path.
  JsonPath(const char* root) : name_(root) {}         // NOLINT
  JsonPath(std::string_view root) : name_(root) {}    // NOLINT
  JsonPath(const std::string& root) : name_(root) {}  // NOLINT

  /// `<this>.key` (just `key` under an empty root).
  [[nodiscard]] JsonPath member(std::string_view key) const {
    return JsonPath(this, key, kNoIndex);
  }
  /// `<this>[index]`.
  [[nodiscard]] JsonPath item(std::size_t index) const {
    return JsonPath(this, {}, index);
  }
  [[nodiscard]] std::string str() const;

 private:
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
  JsonPath(const JsonPath* parent, std::string_view name, std::size_t index)
      : parent_(parent), name_(name), index_(index) {}
  void append_to(std::string& out) const;

  const JsonPath* parent_ = nullptr;
  std::string_view name_;
  std::size_t index_ = kNoIndex;
};

// Typed member accessors for decoding wire documents (the canonical
// config codecs and the lrtd frame protocol). parse_json already
// rejected malformed text, so every failure here is a *schema*
// violation and reports kInvalidArgument naming the `where` path.

/// Required member lookup; `where` prefixes the error ("request.spec").
[[nodiscard]] Result<const JsonValue*> json_member(const JsonValue& object,
                                                   std::string_view key,
                                                   const JsonPath& where);
[[nodiscard]] Result<std::string> json_member_string(
    const JsonValue& object, std::string_view key, const JsonPath& where);
[[nodiscard]] Result<std::int64_t> json_member_int(const JsonValue& object,
                                                   std::string_view key,
                                                   const JsonPath& where);
[[nodiscard]] Result<double> json_member_double(const JsonValue& object,
                                                std::string_view key,
                                                const JsonPath& where);
[[nodiscard]] Result<bool> json_member_bool(const JsonValue& object,
                                            std::string_view key,
                                            const JsonPath& where);
/// A number that must be integral (JsonValue stores doubles; exact for
/// the int64 range this library emits).
[[nodiscard]] Result<std::int64_t> json_to_int(const JsonValue& value,
                                               const JsonPath& where);
/// Verifies `object` carries `"schema": version`.
[[nodiscard]] Status json_check_schema(const JsonValue& object,
                                       std::int64_t version,
                                       const JsonPath& where);

}  // namespace lrt

#endif  // LRT_SUPPORT_JSON_H_
