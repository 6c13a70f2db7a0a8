#include "spec/spec_json.h"

#include <unordered_map>
#include <utility>

namespace lrt::spec {

namespace {

Result<ValueType> value_type_from_name(std::string_view name,
                                       const JsonPath& where) {
  if (name == "real") return ValueType::kReal;
  if (name == "int") return ValueType::kInt;
  if (name == "bool") return ValueType::kBool;
  return InvalidArgumentError(where.str() + " has unknown type '" +
                              std::string(name) + "'");
}

Result<FailureModel> failure_model_from_name(std::string_view name,
                                             const JsonPath& where) {
  if (name == "series") return FailureModel::kSeries;
  if (name == "parallel") return FailureModel::kParallel;
  if (name == "independent") return FailureModel::kIndependent;
  return InvalidArgumentError(where.str() + " has unknown failure model '" +
                              std::string(name) + "'");
}

void write_ports(
    const std::vector<std::pair<std::string, std::int64_t>>& ports,
    JsonWriter& json) {
  json.begin_array();
  for (const auto& [comm, instance] : ports) {
    json.begin_object();
    json.key("comm");
    json.value(comm);
    json.key("instance");
    json.value(instance);
    json.end_object();
  }
  json.end_array();
}

Result<std::vector<std::pair<std::string, std::int64_t>>> ports_from_json(
    const JsonValue& document, const JsonPath& where) {
  if (!document.is_array()) {
    return InvalidArgumentError(where.str() + " must be an array");
  }
  std::vector<std::pair<std::string, std::int64_t>> ports;
  ports.reserve(document.array.size());
  for (std::size_t i = 0; i < document.array.size(); ++i) {
    const JsonPath path = where.item(i);
    const JsonValue& port = document.array[i];
    LRT_ASSIGN_OR_RETURN(std::string comm,
                         json_member_string(port, "comm", path));
    LRT_ASSIGN_OR_RETURN(const std::int64_t instance,
                         json_member_int(port, "instance", path));
    ports.emplace_back(std::move(comm), instance);
  }
  return ports;
}

}  // namespace

void write_json(const Value& value, JsonWriter& json) {
  if (value.is_bottom()) {
    json.null();
    return;
  }
  json.begin_object();
  if (value.is_real()) {
    json.key("real");
    json.value(value.as_real());
  } else if (value.is_int()) {
    json.key("int");
    json.value(value.as_int());
  } else {
    json.key("bool");
    json.value(value.as_bool());
  }
  json.end_object();
}

Result<Value> value_from_json(const JsonValue& document,
                              const JsonPath& where) {
  if (document.kind == JsonValue::Kind::kNull) return Value::bottom();
  if (!document.is_object() || document.object.size() != 1) {
    return InvalidArgumentError(
        where.str() +
        " must be null or a single-member {real|int|bool: ...} object");
  }
  const auto& [key, payload] = document.object.front();
  if (key == "real") {
    if (!payload.is_number()) {
      return InvalidArgumentError(where.str() + ".real must be a number");
    }
    return Value::real(payload.number);
  }
  if (key == "int") {
    LRT_ASSIGN_OR_RETURN(const std::int64_t number,
                         json_to_int(payload, where.member("int")));
    return Value::integer(number);
  }
  if (key == "bool") {
    if (payload.kind != JsonValue::Kind::kBool) {
      return InvalidArgumentError(where.str() + ".bool must be a boolean");
    }
    return Value::boolean(payload.boolean);
  }
  return InvalidArgumentError(where.str() + " has unknown value kind '" +
                              key + "'");
}

void write_json(const SpecificationConfig& config, JsonWriter& json) {
  // Build-time defaults materialization, mirrored here so a config with
  // empty defaults and its built round-trip serialize identically. The
  // type index is built on first need: canonical documents carry their
  // defaults.
  std::unordered_map<std::string_view, ValueType> comm_types;

  json.begin_object();
  json.key("schema");
  json.value(kConfigSchemaVersion);
  json.key("name");
  json.value(config.name);
  json.key("communicators");
  json.begin_array();
  for (const Communicator& comm : config.communicators) {
    json.begin_object();
    json.key("name");
    json.value(comm.name);
    json.key("type");
    json.value(to_string(comm.type));
    json.key("init");
    write_json(comm.init, json);
    json.key("period");
    json.value(comm.period);
    json.key("lrc");
    json.value(comm.lrc);
    json.end_object();
  }
  json.end_array();
  json.key("tasks");
  json.begin_array();
  for (const SpecificationConfig::TaskConfig& task : config.tasks) {
    json.begin_object();
    json.key("name");
    json.value(task.name);
    json.key("model");
    json.value(to_string(task.model));
    json.key("inputs");
    write_ports(task.inputs, json);
    json.key("outputs");
    write_ports(task.outputs, json);
    json.key("defaults");
    json.begin_array();
    if (task.defaults.empty()) {
      if (comm_types.empty()) {
        for (const Communicator& comm : config.communicators) {
          comm_types.emplace(comm.name, comm.type);
        }
      }
      for (const auto& [comm, instance] : task.inputs) {
        const auto type = comm_types.find(comm);
        if (type == comm_types.end()) {
          json.null();  // unresolvable input; Build will reject anyway
        } else {
          write_json(zero_value(type->second), json);
        }
      }
    } else {
      for (const Value& value : task.defaults) write_json(value, json);
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

std::string to_json(const SpecificationConfig& config) {
  JsonWriter json;
  write_json(config, json);
  return std::move(json).str();
}

Result<SpecificationConfig> specification_config_from_json(
    const JsonValue& document) {
  const JsonPath root("spec");
  LRT_RETURN_IF_ERROR(
      json_check_schema(document, kConfigSchemaVersion, root));
  SpecificationConfig config;
  LRT_ASSIGN_OR_RETURN(config.name,
                       json_member_string(document, "name", root));

  LRT_ASSIGN_OR_RETURN(const JsonValue* comms,
                       json_member(document, "communicators", root));
  if (!comms->is_array()) {
    return InvalidArgumentError("spec.communicators must be an array");
  }
  const JsonPath comms_path = root.member("communicators");
  config.communicators.reserve(comms->array.size());
  for (std::size_t i = 0; i < comms->array.size(); ++i) {
    const JsonPath path = comms_path.item(i);
    const JsonValue& entry = comms->array[i];
    Communicator comm;
    LRT_ASSIGN_OR_RETURN(comm.name, json_member_string(entry, "name", path));
    LRT_ASSIGN_OR_RETURN(const std::string type_name,
                         json_member_string(entry, "type", path));
    LRT_ASSIGN_OR_RETURN(comm.type,
                         value_type_from_name(type_name, path.member("type")));
    LRT_ASSIGN_OR_RETURN(const JsonValue* init,
                         json_member(entry, "init", path));
    LRT_ASSIGN_OR_RETURN(comm.init,
                         value_from_json(*init, path.member("init")));
    LRT_ASSIGN_OR_RETURN(comm.period,
                         json_member_int(entry, "period", path));
    LRT_ASSIGN_OR_RETURN(comm.lrc, json_member_double(entry, "lrc", path));
    config.communicators.push_back(std::move(comm));
  }

  LRT_ASSIGN_OR_RETURN(const JsonValue* tasks,
                       json_member(document, "tasks", root));
  if (!tasks->is_array()) {
    return InvalidArgumentError("spec.tasks must be an array");
  }
  const JsonPath tasks_path = root.member("tasks");
  config.tasks.reserve(tasks->array.size());
  for (std::size_t i = 0; i < tasks->array.size(); ++i) {
    const JsonPath path = tasks_path.item(i);
    const JsonValue& entry = tasks->array[i];
    SpecificationConfig::TaskConfig task;
    LRT_ASSIGN_OR_RETURN(task.name, json_member_string(entry, "name", path));
    LRT_ASSIGN_OR_RETURN(const std::string model_name,
                         json_member_string(entry, "model", path));
    LRT_ASSIGN_OR_RETURN(
        task.model, failure_model_from_name(model_name, path.member("model")));
    LRT_ASSIGN_OR_RETURN(const JsonValue* inputs,
                         json_member(entry, "inputs", path));
    LRT_ASSIGN_OR_RETURN(task.inputs,
                         ports_from_json(*inputs, path.member("inputs")));
    LRT_ASSIGN_OR_RETURN(const JsonValue* outputs,
                         json_member(entry, "outputs", path));
    LRT_ASSIGN_OR_RETURN(task.outputs,
                         ports_from_json(*outputs, path.member("outputs")));
    LRT_ASSIGN_OR_RETURN(const JsonValue* defaults,
                         json_member(entry, "defaults", path));
    if (!defaults->is_array()) {
      return InvalidArgumentError(path.str() + ".defaults must be an array");
    }
    const JsonPath defaults_path = path.member("defaults");
    task.defaults.reserve(defaults->array.size());
    for (std::size_t d = 0; d < defaults->array.size(); ++d) {
      LRT_ASSIGN_OR_RETURN(
          Value value,
          value_from_json(defaults->array[d], defaults_path.item(d)));
      task.defaults.push_back(std::move(value));
    }
    config.tasks.push_back(std::move(task));
  }
  return config;
}

Result<SpecificationConfig> specification_config_from_json(
    std::string_view text) {
  LRT_ASSIGN_OR_RETURN(const JsonValue document, parse_json(text));
  return specification_config_from_json(document);
}

}  // namespace lrt::spec
