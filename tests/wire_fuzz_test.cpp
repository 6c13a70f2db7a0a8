// Robustness fuzzing for lrtd's untrusted-bytes path: frame -> parse_json
// -> envelope -> config codecs -> Build -> analyze. Truncated, mutated and
// byte-deleted copies of the canonical three-tank and 200-task documents
// (embedded in an analyze frame) and of whole analyze frames all go
// through Service::handle. Every reply must be a well-formed frame, ok or
// a typed error; the same bytes under a fresh id must get the same reply;
// and afterwards the pristine request must still get its byte-identical
// cold response, so no input poisoned the resident cache. Failures dump a
// reproducer `wire-fuzz-*.json` next to the test binary so CI can upload
// it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>

#include "service/protocol.h"
#include "service/service.h"
#include "support/json.h"
#include "support/rng.h"
#include "tests/wire_designs.h"

namespace lrt {
namespace {

void dump_reproducer(const std::string& name, std::string_view frame) {
  std::ofstream out("wire-fuzz-" + name + ".json", std::ios::binary);
  out << frame;
}

/// Empty iff `frame` is a well-formed reply: a schema-1 object with a
/// string or null id and either "ok":true with a result or "ok":false
/// with a typed, non-internal error.
std::string malformation(std::string_view frame) {
  const auto reply = parse_json(frame);
  if (!reply.ok()) {
    return "reply does not parse: " + reply.status().message();
  }
  const JsonValue* schema = reply->find("schema");
  if (schema == nullptr || !schema->is_number() || schema->number != 1) {
    return "reply has no schema 1";
  }
  const JsonValue* id = reply->find("id");
  if (id == nullptr ||
      (!id->is_string() && id->kind != JsonValue::Kind::kNull)) {
    return "reply id is neither a string nor null";
  }
  const JsonValue* ok = reply->find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) {
    return "reply has no boolean ok";
  }
  if (ok->boolean) {
    return reply->find("result") != nullptr ? "" : "ok reply has no result";
  }
  const JsonValue* error = reply->find("error");
  const JsonValue* code = error == nullptr ? nullptr : error->find("code");
  const JsonValue* message =
      error == nullptr ? nullptr : error->find("message");
  if (code == nullptr || !code->is_string() || message == nullptr ||
      !message->is_string()) {
    return "error reply has no string code and message";
  }
  const std::optional<StatusCode> status =
      status_code_from_name(code->string);
  if (!status.has_value()) return "unknown error code " + code->string;
  switch (*status) {
    case StatusCode::kOk:
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
      return "untyped or transient error " + code->string + ": " +
             message->string;
    default: return "";
  }
}

/// The byte-level damage a client or a transport can do to a document.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// The k-th mutant of `text`: truncations, byte substitutions, and
  /// deletions of a byte or of a short run, in turn.
  std::string mutate(const std::string& text, int k) {
    std::string out = text;
    const std::size_t at = rng_.next_below(text.size());
    switch (k % 4) {
      case 0: out.resize(at); break;
      case 1: out[at] = interesting_byte(); break;
      case 2: out.erase(at, 1); break;
      default: out.erase(at, 1 + rng_.next_below(16)); break;
    }
    return out;
  }

 private:
  char interesting_byte() {
    static constexpr std::string_view kBytes =
        "\"\\{}[],:0123456789-+.eEntf \x1f\x7f";
    if (rng_.bernoulli(0.25)) return static_cast<char>(rng_.next_below(256));
    return kBytes[rng_.next_below(kBytes.size())];
  }

  Xoshiro256 rng_;
};

class WireFuzz : public ::testing::Test {
 protected:
  /// Sends `frame` under two fresh ids (the replay cache answers a
  /// repeated id from memory, so a fresh id forces a fresh decode) and
  /// checks both replies are well formed and agree byte for byte once
  /// the ids are swapped. `frame` holds the placeholder id kId.
  void check_fresh_ids(const std::string& name, const std::string& frame) {
    const std::size_t at = frame.find(kIdField);
    ASSERT_NE(at, std::string::npos);
    std::string replies[2];
    for (std::string& reply : replies) {
      const std::string id = "fuzz-" + std::to_string(next_id_++);
      std::string sent = frame;
      sent.replace(at + kIdField.size() - 2, 1, id);
      reply = service_.handle(sent).frame;
      check_reply(name, sent, reply);
      tally(reply);
      const std::string field = "\"id\":\"" + id + "\"";
      const std::size_t id_at = reply.find(field);
      if (id_at != std::string::npos) reply.replace(id_at, field.size(), "");
    }
    if (replies[0] != replies[1]) {
      dump_reproducer(name, frame);
      ADD_FAILURE() << "same bytes, different replies; reproducer wire-fuzz-"
                    << name << ".json";
    }
  }

  /// Sends bytes whose envelope may itself be damaged to two fresh
  /// services: their replies must be well formed and identical.
  void check_fresh_services(const std::string& name,
                            const std::string& frame) {
    service::Service first;
    service::Service second;
    const std::string a = first.handle(frame).frame;
    const std::string b = second.handle(frame).frame;
    check_reply(name, frame, a);
    if (a != b) {
      dump_reproducer(name, frame);
      ADD_FAILURE() << "same bytes, different replies; reproducer wire-fuzz-"
                    << name << ".json";
    }
  }

  /// Counts how deep the replies reached: answered, rejected by a
  /// decoder or a Build check, or rejected by the parser.
  void tally(std::string_view reply) {
    if (reply.find("\"ok\":true") != std::string_view::npos) {
      ++answered_;
    } else if (reply.find("\"kParseError\"") == std::string_view::npos) {
      ++rejected_by_schema_;
    }
  }

  void check_reply(const std::string& name, std::string_view frame,
                   std::string_view reply) {
    const std::string problem = malformation(reply);
    if (!problem.empty()) {
      dump_reproducer(name, frame);
      ADD_FAILURE() << problem << "; reproducer wire-fuzz-" << name
                    << ".json; reply: " << reply.substr(0, 300);
    }
  }

  /// Fuzzes each config document of `design` inside an intact envelope,
  /// then the whole frame, `count` mutants each.
  void fuzz_design(const std::string& label, const Design& design,
                   int count) {
    Mutator mutator(0xF022 + label.size());
    std::string Design::*const documents[] = {
        &Design::spec_json, &Design::arch_json, &Design::impl_json};
    const char* kinds[] = {"spec", "arch", "impl"};
    for (int d = 0; d < 3; ++d) {
      for (int k = 0; k < count; ++k) {
        Design damaged = design;
        damaged.*documents[d] = mutator.mutate(design.*documents[d], k);
        check_fresh_ids(label + "-" + kinds[d] + "-" + std::to_string(k),
                        analyze_frame(damaged, kId));
      }
    }
    const std::string frame = analyze_frame(design, kId);
    // The envelope prefix {"schema":1,"id":"?" - mutants that leave it
    // intact keep a usable id.
    const std::size_t prefix = frame.find(kIdField) + kIdField.size();
    for (int k = 0; k < count; ++k) {
      const std::string name = label + "-frame-" + std::to_string(k);
      std::string damaged = mutator.mutate(frame, k);
      if (damaged.size() > prefix &&
          damaged.compare(0, prefix, frame, 0, prefix) == 0) {
        check_fresh_ids(name, damaged);
      } else {
        check_fresh_services(name, damaged);
      }
    }
  }

  /// `service`'s reply to the pristine frame of `design` sent under
  /// `id`, with that id blanked so replies to different ids compare.
  static std::string pristine_reply(service::Service& service,
                                    const Design& design,
                                    const std::string& id) {
    std::string reply = service.handle(analyze_frame(design, id)).frame;
    const std::string field = "\"id\":\"" + id + "\"";
    const std::size_t at = reply.find(field);
    if (at != std::string::npos) reply.replace(at, field.size(), "");
    return reply;
  }

  /// Fuzzes `design` with `count` mutants per document and checks the
  /// service still answers the pristine frame with the cold response.
  void run(const std::string& label, const Design& design, int count) {
    service::Service fresh;
    const std::string expected = pristine_reply(fresh, design, "cold");
    ASSERT_NE(expected.find("\"ok\":true"), std::string::npos) << expected;
    // Resident first, so damaged requests meet a warm cache.
    EXPECT_EQ(pristine_reply(service_, design, "warm"), expected);
    fuzz_design(label, design, count);
    EXPECT_EQ(pristine_reply(service_, design, "after"), expected);
    // The mutants got past the parser into the codecs, Build and analyze.
    EXPECT_GT(answered_, 0);
    EXPECT_GT(rejected_by_schema_, 0);
    std::printf("%s: %d answered, %d rejected past the parser\n",
                label.c_str(), answered_, rejected_by_schema_);
  }

  static constexpr std::string_view kId = "?";
  static constexpr std::string_view kIdField = "\"id\":\"?\"";

  service::Service service_;
  int next_id_ = 0;
  int answered_ = 0;
  int rejected_by_schema_ = 0;
};

TEST_F(WireFuzz, ThreeTankDocumentsAndFrames) {
  run("3ts", three_tank_design(), 400);
}

TEST_F(WireFuzz, Generated200TaskDocumentsAndFrames) {
  run("gen200", generated_design(11), 120);
}

TEST_F(WireFuzz, TruncationsOfAFrameAtEveryOffset) {
  // Every prefix of the three-tank frame: the parser's end-of-input
  // handling at each token boundary.
  const std::string frame = analyze_frame(three_tank_design(), kId);
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const std::string name = "prefix-" + std::to_string(n);
    const std::string reply = service_.handle(frame.substr(0, n)).frame;
    check_reply(name, frame.substr(0, n), reply);
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace lrt
