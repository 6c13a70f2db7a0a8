// Canonical JSON codec for the specification config vocabulary — the
// lrtd wire schema (DESIGN.md §5k) and, together with the architecture
// codec, the domain of lrt::Workload::fingerprint().
//
// to_json is *canonical*: the field order is fixed, and empty task
// default lists are materialized to their Build-time values
// (zero_value per input communicator type), so any two configs that
// Build into the same specification serialize to the same bytes.
// from_json accepts exactly what to_json emits, gated by the
// `"schema": 1` version field. TaskFunction is not serializable:
// deserialized tasks carry no function, which the simulation runtime
// treats as type-correct zero outputs.
#ifndef LRT_SPEC_SPEC_JSON_H_
#define LRT_SPEC_SPEC_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "spec/specification.h"
#include "support/json.h"
#include "support/status.h"

namespace lrt::spec {

/// Version stamped on (and required from) every config document of the
/// wire vocabulary (specification, architecture, implementation).
inline constexpr std::int64_t kConfigSchemaVersion = 1;

/// Canonical document: {"schema": 1, "name", "communicators": [...],
/// "tasks": [...]}.
[[nodiscard]] std::string to_json(const SpecificationConfig& config);
/// Same document written into an enclosing writer (for frame payloads).
void write_json(const SpecificationConfig& config, JsonWriter& json);

[[nodiscard]] Result<SpecificationConfig> specification_config_from_json(
    const JsonValue& document);
[[nodiscard]] Result<SpecificationConfig> specification_config_from_json(
    std::string_view text);

/// One communicator value: null (bottom), {"real": x}, {"int": n}, or
/// {"bool": b}.
void write_json(const Value& value, JsonWriter& json);
[[nodiscard]] Result<Value> value_from_json(const JsonValue& document,
                                            const JsonPath& where);

}  // namespace lrt::spec

#endif  // LRT_SPEC_SPEC_JSON_H_
