#include "impl/impl_json.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "spec/spec_json.h"

namespace lrt::impl {

void write_json(const ImplementationConfig& config, JsonWriter& json) {
  std::vector<const ImplementationConfig::TaskMapping*> mappings;
  mappings.reserve(config.task_mappings.size());
  for (const auto& mapping : config.task_mappings)
    mappings.push_back(&mapping);
  std::sort(mappings.begin(), mappings.end(),
            [](const auto* a, const auto* b) { return a->task < b->task; });

  std::vector<const ImplementationConfig::SensorBinding*> bindings;
  bindings.reserve(config.sensor_bindings.size());
  for (const auto& binding : config.sensor_bindings)
    bindings.push_back(&binding);
  std::sort(bindings.begin(), bindings.end(), [](const auto* a,
                                                 const auto* b) {
    return a->communicator < b->communicator;
  });

  json.begin_object();
  json.key("schema");
  json.value(spec::kConfigSchemaVersion);
  json.key("name");
  json.value(config.name);
  json.key("task_mappings");
  json.begin_array();
  for (const ImplementationConfig::TaskMapping* mapping : mappings) {
    json.begin_object();
    json.key("task");
    json.value(mapping->task);
    json.key("hosts");
    json.begin_array();
    std::vector<std::string> hosts = mapping->hosts;
    std::sort(hosts.begin(), hosts.end());
    for (const std::string& host : hosts) json.value(host);
    json.end_array();
    json.key("reexecutions");
    json.value(mapping->reexecutions);
    json.key("checkpoints");
    json.value(mapping->checkpoints);
    json.key("checkpoint_overhead");
    json.value(mapping->checkpoint_overhead);
    json.end_object();
  }
  json.end_array();
  json.key("sensor_bindings");
  json.begin_array();
  for (const ImplementationConfig::SensorBinding* binding : bindings) {
    json.begin_object();
    json.key("communicator");
    json.value(binding->communicator);
    json.key("sensor");
    json.value(binding->sensor);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

std::string to_json(const ImplementationConfig& config) {
  JsonWriter json;
  write_json(config, json);
  return std::move(json).str();
}

Result<ImplementationConfig> implementation_config_from_json(
    const JsonValue& document) {
  const JsonPath root("impl");
  LRT_RETURN_IF_ERROR(
      json_check_schema(document, spec::kConfigSchemaVersion, root));
  ImplementationConfig config;
  LRT_ASSIGN_OR_RETURN(config.name,
                       json_member_string(document, "name", root));

  LRT_ASSIGN_OR_RETURN(const JsonValue* mappings,
                       json_member(document, "task_mappings", root));
  if (!mappings->is_array()) {
    return InvalidArgumentError("impl.task_mappings must be an array");
  }
  const JsonPath mappings_path = root.member("task_mappings");
  config.task_mappings.reserve(mappings->array.size());
  for (std::size_t i = 0; i < mappings->array.size(); ++i) {
    const JsonPath path = mappings_path.item(i);
    const JsonValue& entry = mappings->array[i];
    ImplementationConfig::TaskMapping mapping;
    LRT_ASSIGN_OR_RETURN(mapping.task,
                         json_member_string(entry, "task", path));
    LRT_ASSIGN_OR_RETURN(const JsonValue* hosts,
                         json_member(entry, "hosts", path));
    if (!hosts->is_array()) {
      return InvalidArgumentError(path.str() + ".hosts must be an array");
    }
    mapping.hosts.reserve(hosts->array.size());
    for (std::size_t h = 0; h < hosts->array.size(); ++h) {
      const JsonValue& host = hosts->array[h];
      if (!host.is_string()) {
        return InvalidArgumentError(path.member("hosts").item(h).str() +
                                    " must be a string");
      }
      mapping.hosts.push_back(host.string);
    }
    LRT_ASSIGN_OR_RETURN(const std::int64_t reexecutions,
                         json_member_int(entry, "reexecutions", path));
    mapping.reexecutions = static_cast<int>(reexecutions);
    LRT_ASSIGN_OR_RETURN(const std::int64_t checkpoints,
                         json_member_int(entry, "checkpoints", path));
    mapping.checkpoints = static_cast<int>(checkpoints);
    LRT_ASSIGN_OR_RETURN(
        mapping.checkpoint_overhead,
        json_member_int(entry, "checkpoint_overhead", path));
    config.task_mappings.push_back(std::move(mapping));
  }

  LRT_ASSIGN_OR_RETURN(const JsonValue* bindings,
                       json_member(document, "sensor_bindings", root));
  if (!bindings->is_array()) {
    return InvalidArgumentError("impl.sensor_bindings must be an array");
  }
  const JsonPath bindings_path = root.member("sensor_bindings");
  config.sensor_bindings.reserve(bindings->array.size());
  for (std::size_t i = 0; i < bindings->array.size(); ++i) {
    const JsonPath path = bindings_path.item(i);
    const JsonValue& entry = bindings->array[i];
    ImplementationConfig::SensorBinding binding;
    LRT_ASSIGN_OR_RETURN(binding.communicator,
                         json_member_string(entry, "communicator", path));
    LRT_ASSIGN_OR_RETURN(binding.sensor,
                         json_member_string(entry, "sensor", path));
    config.sensor_bindings.push_back(std::move(binding));
  }
  return config;
}

Result<ImplementationConfig> implementation_config_from_json(
    std::string_view text) {
  LRT_ASSIGN_OR_RETURN(const JsonValue document, parse_json(text));
  return implementation_config_from_json(document);
}

}  // namespace lrt::impl
