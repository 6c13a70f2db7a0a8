// The canonical wire codecs behind lrtd (DESIGN.md §5k): every config
// document must round-trip exactly (to_json -> from_json -> to_json is
// byte-identical), reject foreign schema versions, and hash to a stable,
// canonical-order-insensitive workload fingerprint. The decode-error
// goldens pin each schema violation's status code and message byte for
// byte; they were recorded from the decoders that composed every error
// path eagerly.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "arch/arch_json.h"
#include "arch/architecture.h"
#include "impl/impl_json.h"
#include "impl/implementation.h"
#include "lrt/lrt.h"
#include "reliability/analysis.h"
#include "service/service.h"
#include "spec/spec_json.h"
#include "spec/specification.h"
#include "support/json.h"
#include "support/status.h"

namespace lrt {
namespace {

spec::SpecificationConfig make_spec_config() {
  spec::SpecificationConfig config;
  config.name = "wire_spec";
  config.communicators = {
      {"s", spec::ValueType::kReal, spec::Value::real(0.5), 10, 0.95},
      {"level", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.90},
      {"alarm", spec::ValueType::kBool, spec::Value::boolean(false), 20,
       0.80},
  };
  spec::SpecificationConfig::TaskConfig filter;
  filter.name = "filter";
  filter.inputs = {{"s", 0}};
  filter.outputs = {{"level", 1}};
  filter.model = spec::FailureModel::kSeries;
  config.tasks.push_back(std::move(filter));
  spec::SpecificationConfig::TaskConfig monitor;
  monitor.name = "monitor";
  monitor.inputs = {{"level", 1}};
  monitor.outputs = {{"alarm", 1}};
  monitor.model = spec::FailureModel::kIndependent;
  monitor.defaults = {spec::Value::real(0.0)};
  config.tasks.push_back(std::move(monitor));
  return config;
}

arch::ArchitectureConfig make_arch_config() {
  arch::ArchitectureConfig config;
  config.name = "wire_arch";
  config.hosts = {{"h1", 0.99}, {"h2", 0.97}};
  config.sensors = {{"gauge", 0.98}};
  config.metrics = {{"filter", "h1", 3, 1}, {"filter", "h2", 4, 2}};
  config.default_wcet = 4;
  config.default_wctt = 1;
  return config;
}

impl::ImplementationConfig make_impl_config() {
  impl::ImplementationConfig config;
  config.name = "wire_impl";
  config.task_mappings = {{"filter", {"h1", "h2"}, 1, 0, 0},
                          {"monitor", {"h2"}, 0, 0, 0}};
  config.sensor_bindings = {{"s", "gauge"}};
  return config;
}

TEST(WireJson, SpecificationConfigRoundTripsExactly) {
  const std::string first = spec::to_json(make_spec_config());
  const auto decoded = spec::specification_config_from_json(first);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(spec::to_json(*decoded), first);
}

TEST(WireJson, ArchitectureConfigRoundTripsExactly) {
  const std::string first = arch::to_json(make_arch_config());
  const auto decoded = arch::architecture_config_from_json(first);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(arch::to_json(*decoded), first);
}

TEST(WireJson, ImplementationConfigRoundTripsExactly) {
  const std::string first = impl::to_json(make_impl_config());
  const auto decoded = impl::implementation_config_from_json(first);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(impl::to_json(*decoded), first);
}

TEST(WireJson, BuiltModelsRoundTripThroughConfigs) {
  // Build -> to_config -> to_json -> from_json -> Build -> to_json must
  // close the loop: the canonical document of a built model re-parses to
  // the same canonical document.
  auto workload = build_workload(make_spec_config(), make_arch_config());
  ASSERT_TRUE(workload.ok()) << workload.status().to_string();
  const std::string spec_json = spec::to_json(workload->spec->to_config());
  const std::string arch_json = arch::to_json(workload->arch->to_config());

  const auto spec_config = spec::specification_config_from_json(spec_json);
  ASSERT_TRUE(spec_config.ok());
  const auto arch_config = arch::architecture_config_from_json(arch_json);
  ASSERT_TRUE(arch_config.ok());
  auto rebuilt = build_workload(*spec_config, *arch_config);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(spec::to_json(rebuilt->spec->to_config()), spec_json);
  EXPECT_EQ(arch::to_json(rebuilt->arch->to_config()), arch_json);
}

TEST(WireJson, ReliabilityReportRoundTripsExactly) {
  auto workload = build_workload(make_spec_config(), make_arch_config());
  ASSERT_TRUE(workload.ok());
  auto impl = build_implementation(*workload, make_impl_config());
  ASSERT_TRUE(impl.ok());
  auto report = analyze(*workload, *impl);
  ASSERT_TRUE(report.ok());

  const std::string first = reliability::to_json(*report);
  const auto document = parse_json(first);
  ASSERT_TRUE(document.ok()) << first;
  const auto decoded = reliability::report_from_json(*document);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(reliability::to_json(*decoded), first);
}

TEST(WireJson, ForeignSchemaVersionIsRejected) {
  for (const std::string& document :
       {spec::to_json(make_spec_config()), arch::to_json(make_arch_config()),
        impl::to_json(make_impl_config())}) {
    std::string foreign = document;
    const std::size_t at = foreign.find("\"schema\":1");
    ASSERT_NE(at, std::string::npos) << document;
    foreign.replace(at, 10, "\"schema\":2");

    const auto spec_result = spec::specification_config_from_json(foreign);
    const auto arch_result = arch::architecture_config_from_json(foreign);
    const auto impl_result = impl::implementation_config_from_json(foreign);
    EXPECT_FALSE(spec_result.ok());
    EXPECT_FALSE(arch_result.ok());
    EXPECT_FALSE(impl_result.ok());
  }
}

TEST(WireJson, ValueCodecRoundTrips) {
  const std::vector<spec::Value> values = {
      spec::Value::real(3.25), spec::Value::real(-0.0),
      spec::Value::boolean(true), spec::Value::boolean(false)};
  for (const spec::Value& value : values) {
    JsonWriter json;
    spec::write_json(value, json);
    const std::string text = std::move(json).str();
    const auto document = parse_json(text);
    ASSERT_TRUE(document.ok()) << text;
    const auto decoded = spec::value_from_json(*document, "value");
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    JsonWriter again;
    spec::write_json(*decoded, again);
    EXPECT_EQ(std::move(again).str(), text);
  }
}

TEST(WireJson, FingerprintIsStable) {
  auto first = build_workload(make_spec_config(), make_arch_config());
  auto second = build_workload(make_spec_config(), make_arch_config());
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->fingerprint(), second->fingerprint());
  EXPECT_EQ(first->fingerprint(),
            fingerprint(first->spec->to_config(), first->arch->to_config()));
}

TEST(WireJson, FingerprintIgnoresMetricDeclarationOrder) {
  arch::ArchitectureConfig shuffled = make_arch_config();
  std::swap(shuffled.metrics[0], shuffled.metrics[1]);
  auto canonical = build_workload(make_spec_config(), make_arch_config());
  auto permuted = build_workload(make_spec_config(), std::move(shuffled));
  ASSERT_TRUE(canonical.ok());
  ASSERT_TRUE(permuted.ok());
  // Architecture::to_config sorts metric entries, so the fingerprint of
  // the built workload is declaration-order-insensitive.
  EXPECT_EQ(canonical->fingerprint(), permuted->fingerprint());
}

TEST(WireJson, FingerprintSeparatesDifferentWorkloads) {
  arch::ArchitectureConfig changed = make_arch_config();
  changed.hosts[0].reliability = 0.991;
  auto base = build_workload(make_spec_config(), make_arch_config());
  auto other = build_workload(make_spec_config(), std::move(changed));
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(other.ok());
  EXPECT_NE(base->fingerprint(), other->fingerprint());
}

// --- decode-error goldens --------------------------------------------------

enum class Doc { kSpec, kArch, kImpl, kFrame };

struct DecodeCase {
  Doc doc;
  /// Applied to the canonical document: the first occurrence of `find`
  /// becomes `replace` (an empty `find` replaces the whole document).
  std::string_view find;
  std::string_view replace;
  StatusCode code;
  std::string_view message;
};

std::string canonical(Doc doc) {
  switch (doc) {
    case Doc::kSpec: return spec::to_json(make_spec_config());
    case Doc::kArch: return arch::to_json(make_arch_config());
    case Doc::kImpl: return impl::to_json(make_impl_config());
    case Doc::kFrame: break;
  }
  return R"({"schema":1,"id":"e","verb":"analyze","spec":)" +
         canonical(Doc::kSpec) + R"(,"arch":)" + canonical(Doc::kArch) +
         R"(,"implementation":)" + canonical(Doc::kImpl) + "}";
}

/// The status the document decodes to; for kFrame, the error Service
/// answers the frame with (kOk if it answers ok).
Status decode(Doc doc, const std::string& text) {
  if (doc == Doc::kFrame) {
    service::Service service;
    const auto reply = parse_json(service.handle(text).frame);
    EXPECT_TRUE(reply.ok());
    const JsonValue* error = reply->find("error");
    if (error == nullptr) return Status::Ok();
    const auto code = status_code_from_name(error->find("code")->string);
    EXPECT_TRUE(code.has_value());
    return Status(*code, error->find("message")->string);
  }
  const auto document = parse_json(text);
  if (!document.ok()) return document.status();
  switch (doc) {
    case Doc::kSpec:
      return spec::specification_config_from_json(*document).status();
    case Doc::kArch:
      return arch::architecture_config_from_json(*document).status();
    default: return impl::implementation_config_from_json(*document).status();
  }
}

TEST(WireJson, DecodeErrorsNameTheExactPath) {
  constexpr auto kInvalid = StatusCode::kInvalidArgument;
  const DecodeCase kCases[] = {
      {Doc::kSpec, "", "[]", kInvalid, "spec must be an object"},
      {Doc::kSpec, "\"schema\":1", "\"schema\":2", kInvalid,
       "spec.schema 2 is not supported (expected 1)"},
      {Doc::kSpec, "\"schema\":1,", "", kInvalid, "spec.schema is missing"},
      {Doc::kSpec, "\"schema\":1", "\"schema\":1.5", kInvalid,
       "spec.schema must be an integer"},
      {Doc::kSpec, "\"schema\":1", "\"schema\":\"1\"", kInvalid,
       "spec.schema must be a number"},
      {Doc::kSpec, "\"name\":\"wire_spec\"", "\"name\":7", kInvalid,
       "spec.name must be a string"},
      {Doc::kSpec, "\"communicators\":[", "\"communicators\":3,\"x\":[",
       kInvalid, "spec.communicators must be an array"},
      {Doc::kSpec, "\"name\":\"level\",", "", kInvalid,
       "spec.communicators[1].name is missing"},
      {Doc::kSpec, "\"type\":\"real\",\"init\":{\"real\":0}",
       "\"type\":\"float\",\"init\":{\"real\":0}", kInvalid,
       "spec.communicators[1].type has unknown type 'float'"},
      {Doc::kSpec, "\"init\":{\"bool\":false}",
       "\"init\":{\"bool\":false,\"int\":1}", kInvalid,
       "spec.communicators[2].init must be null or a single-member "
       "{real|int|bool: ...} object"},
      {Doc::kSpec, "{\"real\":0.5}", "{\"real\":\"0.5\"}", kInvalid,
       "spec.communicators[0].init.real must be a number"},
      {Doc::kSpec, "{\"real\":0.5}", "{\"int\":0.5}", kInvalid,
       "spec.communicators[0].init.int must be an integer"},
      {Doc::kSpec, "\"init\":{\"real\":0}", "\"init\":{\"float\":0}",
       kInvalid, "spec.communicators[1].init has unknown value kind 'float'"},
      {Doc::kSpec, "{\"bool\":false}", "{\"bool\":0}", kInvalid,
       "spec.communicators[2].init.bool must be a boolean"},
      {Doc::kSpec, "\"period\":10", "\"period\":10.5", kInvalid,
       "spec.communicators[0].period must be an integer"},
      {Doc::kSpec, "\"lrc\":0.8", "\"lrc\":null", kInvalid,
       "spec.communicators[2].lrc must be a number"},
      {Doc::kSpec, "\"tasks\":[", "\"tasks\":{},\"x\":[", kInvalid,
       "spec.tasks must be an array"},
      {Doc::kSpec, "\"model\":\"independent\"", "\"model\":\"serial\"",
       kInvalid, "spec.tasks[1].model has unknown failure model 'serial'"},
      {Doc::kSpec, "\"instance\":0", "\"instance\":0.25", kInvalid,
       "spec.tasks[0].inputs[0].instance must be an integer"},
      {Doc::kSpec, "\"instance\":0", "\"instance\":9223372036854775808",
       kInvalid, "spec.tasks[0].inputs[0].instance must be an integer"},
      {Doc::kSpec, "\"instance\":0", "\"instance\":\"0\"", kInvalid,
       "spec.tasks[0].inputs[0].instance must be a number"},
      {Doc::kSpec, "{\"comm\":\"s\",\"instance\":0}", "{\"comm\":\"s\"}",
       kInvalid, "spec.tasks[0].inputs[0].instance is missing"},
      {Doc::kSpec, "{\"comm\":\"alarm\"", "{\"comm\":false", kInvalid,
       "spec.tasks[1].outputs[0].comm must be a string"},
      {Doc::kSpec, "[{\"comm\":\"level\",\"instance\":1}],\"outputs\":[{"
                   "\"comm\":\"alarm\"",
       "[\"level\"],\"outputs\":[{\"comm\":\"alarm\"", kInvalid,
       "spec.tasks[1].inputs[0] must be an object"},
      {Doc::kSpec, "\"inputs\":[{\"comm\":\"s\",\"instance\":0}]",
       "\"inputs\":{\"comm\":\"s\",\"instance\":0}", kInvalid,
       "spec.tasks[0].inputs must be an array"},
      {Doc::kSpec, "\"defaults\":[{\"real\":0}]", "\"defaults\":{\"real\":0}",
       kInvalid, "spec.tasks[0].defaults must be an array"},
      {Doc::kSpec, "\"defaults\":[{\"real\":0}]", "\"defaults\":[null,7]",
       kInvalid,
       "spec.tasks[0].defaults[1] must be null or a single-member "
       "{real|int|bool: ...} object"},
      {Doc::kArch, "\"reliability\":0.97", "\"reliability\":\"high\"",
       kInvalid, "arch.hosts[1].reliability must be a number"},
      {Doc::kArch, "\"sensors\":[", "\"sensors\":null,\"x\":[", kInvalid,
       "arch.sensors must be an array"},
      {Doc::kArch, "\"host\":\"h1\",", "", kInvalid,
       "arch.metrics[0].host is missing"},
      {Doc::kArch, "\"wctt\":2", "\"wctt\":2.5", kInvalid,
       "arch.metrics[1].wctt must be an integer"},
      {Doc::kArch, "\"default_wcet\":4", "\"default_wcet\":4.5", kInvalid,
       "arch.default_wcet must be an integer"},
      {Doc::kArch, "\"default_wctt\":1", "\"default_wctt\":\"1\"", kInvalid,
       "arch.default_wctt must be a number"},
      {Doc::kImpl, "[\"h1\",\"h2\"]", "[\"h1\",2]", kInvalid,
       "impl.task_mappings[0].hosts[1] must be a string"},
      {Doc::kImpl, "\"hosts\":[\"h2\"]", "\"hosts\":\"h2\"", kInvalid,
       "impl.task_mappings[1].hosts must be an array"},
      {Doc::kImpl, "\"reexecutions\":1", "\"reexecutions\":1e-3", kInvalid,
       "impl.task_mappings[0].reexecutions must be an integer"},
      {Doc::kImpl, ",\"checkpoint_overhead\":0}]", "}]", kInvalid,
       "impl.task_mappings[1].checkpoint_overhead is missing"},
      {Doc::kImpl, "\"sensor\":\"gauge\"", "\"sensor\":{}", kInvalid,
       "impl.sensor_bindings[0].sensor must be a string"},
      {Doc::kImpl, "\"task_mappings\":[", "\"task_mappings\":true,\"x\":[",
       kInvalid, "impl.task_mappings must be an array"},
      {Doc::kFrame, "\"schema\":1", "", StatusCode::kParseError,
       "json: expected object key at offset 1"},
      {Doc::kFrame, "\"schema\":1", "\"schema\":3", kInvalid,
       "request.schema 3 is not supported (expected 1)"},
      {Doc::kFrame, "\"id\":\"e\",", "", kInvalid, "request.id is missing"},
      {Doc::kFrame, "\"verb\":\"analyze\"", "\"verb\":\"analyse\"", kInvalid,
       "request.verb: unknown verb 'analyse'"},
      {Doc::kFrame, "\"verb\":\"analyze\"",
       "\"verb\":\"analyze\",\"deadline_ms\":2.5", kInvalid,
       "request.deadline_ms must be an integer"},
      {Doc::kFrame, "\"verb\":\"analyze\"",
       "\"verb\":\"analyze\",\"mutate\":{}", kInvalid,
       "request: analyze needs exactly one of 'implementation' and "
       "'mutate'"},
      {Doc::kFrame, "\"spec\":", "\"fingerprint\":\"xyz\",\"spec\":",
       kInvalid, "request.fingerprint must be 16 lowercase hex digits"},
      {Doc::kFrame, "\"instance\":0", "\"instance\":-0.5", kInvalid,
       "spec.tasks[0].inputs[0].instance must be an integer"},
      {Doc::kFrame, "\"wcet\":3", "\"wcet\":[]", kInvalid,
       "arch.metrics[0].wcet must be a number"},
      {Doc::kFrame, "[\"h1\",\"h2\"]", "[\"h1\",null]", kInvalid,
       "impl.task_mappings[0].hosts[1] must be a string"},
  };
  for (const DecodeCase& c : kCases) {
    std::string text = canonical(c.doc);
    if (c.find.empty()) {
      text = std::string(c.replace);
    } else {
      const std::size_t at = text.find(c.find);
      ASSERT_NE(at, std::string::npos) << c.find;
      text.replace(at, c.find.size(), c.replace);
    }
    const Status status = decode(c.doc, text);
    EXPECT_EQ(status.code(), c.code) << text;
    EXPECT_EQ(status.message(), c.message) << text;
  }
  // The pristine documents decode (and the frame analyzes) cleanly.
  for (const Doc doc : {Doc::kSpec, Doc::kArch, Doc::kImpl, Doc::kFrame}) {
    EXPECT_TRUE(decode(doc, canonical(doc)).ok());
  }
}

}  // namespace
}  // namespace lrt
