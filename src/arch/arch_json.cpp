#include "arch/arch_json.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "spec/spec_json.h"

namespace lrt::arch {

namespace {

void write_optional_time(const std::optional<Time>& value,
                         JsonWriter& json) {
  if (value.has_value()) {
    json.value(*value);
  } else {
    json.null();
  }
}

Result<std::optional<Time>> optional_time_from_json(
    const JsonValue& object, std::string_view key, const JsonPath& where) {
  LRT_ASSIGN_OR_RETURN(const JsonValue* member,
                       json_member(object, key, where));
  if (member->kind == JsonValue::Kind::kNull) return std::optional<Time>();
  LRT_ASSIGN_OR_RETURN(const std::int64_t value,
                       json_to_int(*member, where.member(key)));
  return std::optional<Time>(value);
}

}  // namespace

void write_json(const ArchitectureConfig& config, JsonWriter& json) {
  // The metric map is the one order-insensitive field of the config:
  // Build keys it by (task, host), so the canonical form sorts it.
  std::vector<const ArchitectureConfig::MetricEntry*> metrics;
  metrics.reserve(config.metrics.size());
  for (const auto& entry : config.metrics) metrics.push_back(&entry);
  std::sort(metrics.begin(), metrics.end(),
            [](const auto* a, const auto* b) {
              return std::tie(a->task, a->host) < std::tie(b->task, b->host);
            });

  json.begin_object();
  json.key("schema");
  json.value(spec::kConfigSchemaVersion);
  json.key("name");
  json.value(config.name);
  json.key("hosts");
  json.begin_array();
  for (const Host& host : config.hosts) {
    json.begin_object();
    json.key("name");
    json.value(host.name);
    json.key("reliability");
    json.value(host.reliability);
    json.end_object();
  }
  json.end_array();
  json.key("sensors");
  json.begin_array();
  for (const Sensor& sensor : config.sensors) {
    json.begin_object();
    json.key("name");
    json.value(sensor.name);
    json.key("reliability");
    json.value(sensor.reliability);
    json.end_object();
  }
  json.end_array();
  json.key("metrics");
  json.begin_array();
  for (const ArchitectureConfig::MetricEntry* entry : metrics) {
    json.begin_object();
    json.key("task");
    json.value(entry->task);
    json.key("host");
    json.value(entry->host);
    json.key("wcet");
    json.value(entry->wcet);
    json.key("wctt");
    json.value(entry->wctt);
    json.end_object();
  }
  json.end_array();
  json.key("default_wcet");
  write_optional_time(config.default_wcet, json);
  json.key("default_wctt");
  write_optional_time(config.default_wctt, json);
  json.end_object();
}

std::string to_json(const ArchitectureConfig& config) {
  JsonWriter json;
  write_json(config, json);
  return std::move(json).str();
}

Result<ArchitectureConfig> architecture_config_from_json(
    const JsonValue& document) {
  const JsonPath root("arch");
  LRT_RETURN_IF_ERROR(
      json_check_schema(document, spec::kConfigSchemaVersion, root));
  ArchitectureConfig config;
  LRT_ASSIGN_OR_RETURN(config.name,
                       json_member_string(document, "name", root));

  LRT_ASSIGN_OR_RETURN(const JsonValue* hosts,
                       json_member(document, "hosts", root));
  if (!hosts->is_array()) {
    return InvalidArgumentError("arch.hosts must be an array");
  }
  const JsonPath hosts_path = root.member("hosts");
  config.hosts.reserve(hosts->array.size());
  for (std::size_t i = 0; i < hosts->array.size(); ++i) {
    const JsonPath path = hosts_path.item(i);
    const JsonValue& entry = hosts->array[i];
    Host host;
    LRT_ASSIGN_OR_RETURN(host.name, json_member_string(entry, "name", path));
    LRT_ASSIGN_OR_RETURN(host.reliability,
                         json_member_double(entry, "reliability", path));
    config.hosts.push_back(std::move(host));
  }

  LRT_ASSIGN_OR_RETURN(const JsonValue* sensors,
                       json_member(document, "sensors", root));
  if (!sensors->is_array()) {
    return InvalidArgumentError("arch.sensors must be an array");
  }
  const JsonPath sensors_path = root.member("sensors");
  config.sensors.reserve(sensors->array.size());
  for (std::size_t i = 0; i < sensors->array.size(); ++i) {
    const JsonPath path = sensors_path.item(i);
    const JsonValue& entry = sensors->array[i];
    Sensor sensor;
    LRT_ASSIGN_OR_RETURN(sensor.name,
                         json_member_string(entry, "name", path));
    LRT_ASSIGN_OR_RETURN(sensor.reliability,
                         json_member_double(entry, "reliability", path));
    config.sensors.push_back(std::move(sensor));
  }

  LRT_ASSIGN_OR_RETURN(const JsonValue* metrics,
                       json_member(document, "metrics", root));
  if (!metrics->is_array()) {
    return InvalidArgumentError("arch.metrics must be an array");
  }
  const JsonPath metrics_path = root.member("metrics");
  config.metrics.reserve(metrics->array.size());
  for (std::size_t i = 0; i < metrics->array.size(); ++i) {
    const JsonPath path = metrics_path.item(i);
    const JsonValue& entry = metrics->array[i];
    ArchitectureConfig::MetricEntry metric;
    LRT_ASSIGN_OR_RETURN(metric.task,
                         json_member_string(entry, "task", path));
    LRT_ASSIGN_OR_RETURN(metric.host,
                         json_member_string(entry, "host", path));
    LRT_ASSIGN_OR_RETURN(metric.wcet, json_member_int(entry, "wcet", path));
    LRT_ASSIGN_OR_RETURN(metric.wctt, json_member_int(entry, "wctt", path));
    config.metrics.push_back(std::move(metric));
  }

  LRT_ASSIGN_OR_RETURN(
      config.default_wcet,
      optional_time_from_json(document, "default_wcet", root));
  LRT_ASSIGN_OR_RETURN(
      config.default_wctt,
      optional_time_from_json(document, "default_wctt", root));
  return config;
}

Result<ArchitectureConfig> architecture_config_from_json(
    std::string_view text) {
  LRT_ASSIGN_OR_RETURN(const JsonValue document, parse_json(text));
  return architecture_config_from_json(document);
}

}  // namespace lrt::arch
