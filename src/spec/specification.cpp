#include "spec/specification.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>

#include "support/math_util.h"
#include "support/strings.h"

namespace lrt::spec {

std::string_view to_string(FailureModel model) {
  switch (model) {
    case FailureModel::kSeries: return "series";
    case FailureModel::kParallel: return "parallel";
    case FailureModel::kIndependent: return "independent";
  }
  return "?";
}

namespace {

Status validate_communicator(const Communicator& comm) {
  if (!is_identifier(comm.name)) {
    return InvalidArgumentError("communicator name '" + comm.name +
                                "' is not a valid identifier");
  }
  if (comm.period <= 0) {
    return InvalidArgumentError("communicator '" + comm.name +
                                "' has non-positive period " +
                                std::to_string(comm.period));
  }
  if (!(comm.lrc > 0.0 && comm.lrc <= 1.0)) {
    return InvalidArgumentError("communicator '" + comm.name +
                                "' has LRC outside (0,1]: " +
                                format_double(comm.lrc));
  }
  if (!comm.init.conforms_to(comm.type)) {
    return InvalidArgumentError("communicator '" + comm.name +
                                "' init value " + comm.init.to_string() +
                                " does not conform to type " +
                                std::string(to_string(comm.type)));
  }
  return Status::Ok();
}

/// The dependency digraph in compressed sparse row form: nodes are
/// communicators [0, C), then tasks [C, C+T); the successors of node u
/// are target[offset[u] .. offset[u+1]).
struct Digraph {
  std::vector<std::size_t> offset{0};
  std::vector<std::size_t> target;
  [[nodiscard]] std::size_t size() const { return offset.size() - 1; }
};

/// The communicators on cycles, one ascending list per nontrivial
/// strongly connected component, components in the reverse topological
/// order an iterative Tarjan numbers them in.
std::vector<std::vector<CommId>> cyclic_components(const Digraph& graph,
                                                   std::size_t num_comms) {
  constexpr std::size_t kUnvisited = SIZE_MAX;
  const std::size_t n = graph.size();
  std::vector<std::size_t> index(n, kUnvisited);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<std::size_t> component(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<bool> cyclic;  // by component
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;
  struct Frame {
    std::size_t node;
    std::size_t edge;
  };
  std::vector<Frame> frames;
  const auto open = [&](std::size_t v) {
    index[v] = lowlink[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    frames.push_back({v, graph.offset[v]});
  };

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    open(root);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const std::size_t u = frame.node;
      if (frame.edge < graph.offset[u + 1]) {
        const std::size_t v = graph.target[frame.edge++];
        if (index[v] == kUnvisited) {
          open(v);
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        std::size_t& parent = lowlink[frames.back().node];
        parent = std::min(parent, lowlink[u]);
      }
      if (lowlink[u] != index[u]) continue;
      // u roots a component. The digraph is bipartite (no self-loops),
      // so the component is cyclic iff it has more than one node.
      std::size_t popped;
      std::size_t size = 0;
      do {
        popped = stack.back();
        stack.pop_back();
        on_stack[popped] = false;
        component[popped] = cyclic.size();
        ++size;
      } while (popped != u);
      cyclic.push_back(size > 1);
    }
  }

  std::vector<std::vector<CommId>> by_component(cyclic.size());
  for (std::size_t c = 0; c < num_comms; ++c) {
    if (cyclic[component[c]]) {
      by_component[component[c]].push_back(static_cast<CommId>(c));
    }
  }
  std::erase_if(by_component, [](const auto& comms) { return comms.empty(); });
  return by_component;
}

/// Kahn's algorithm: the communicators in visit order, or nullopt when
/// the digraph has a cycle.
std::optional<std::vector<CommId>> topological_comms(const Digraph& graph,
                                                     std::size_t num_comms) {
  std::vector<std::size_t> indegree(graph.size(), 0);
  for (const std::size_t v : graph.target) ++indegree[v];
  std::vector<std::size_t> queue;
  for (std::size_t v = 0; v < graph.size(); ++v) {
    if (indegree[v] == 0) queue.push_back(v);
  }
  std::vector<CommId> order;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t u = queue[head];
    if (u < num_comms) order.push_back(static_cast<CommId>(u));
    for (std::size_t e = graph.offset[u]; e < graph.offset[u + 1]; ++e) {
      if (--indegree[graph.target[e]] == 0) queue.push_back(graph.target[e]);
    }
  }
  if (queue.size() != graph.size()) return std::nullopt;
  return order;
}

}  // namespace

void Specification::derive_graph_facts() {
  // c -> t when t reads c, t -> c when t writes c (distinct, ascending).
  // The cut digraph drops the input edges of independent-model tasks:
  // model 3 executes regardless of its inputs, so its output reliability
  // does not depend on them.
  const std::size_t num_comms = communicators_.size();
  Digraph full;
  Digraph cut;
  for (std::size_t c = 0; c < num_comms; ++c) {
    for (const TaskId t : readers_[c]) {
      const std::size_t node = num_comms + static_cast<std::size_t>(t);
      full.target.push_back(node);
      if (task(t).model != FailureModel::kIndependent) {
        cut.target.push_back(node);
      }
    }
    full.offset.push_back(full.target.size());
    cut.offset.push_back(cut.target.size());
  }
  for (const Task& t : tasks_) {
    const auto first = static_cast<std::ptrdiff_t>(full.target.size());
    for (const PortRef& port : t.outputs) {
      full.target.push_back(static_cast<std::size_t>(port.comm));
    }
    std::sort(full.target.begin() + first, full.target.end());
    full.target.erase(
        std::unique(full.target.begin() + first, full.target.end()),
        full.target.end());
    cut.target.insert(cut.target.end(), full.target.begin() + first,
                      full.target.end());
    full.offset.push_back(full.target.size());
    cut.offset.push_back(cut.target.size());
  }

  // Tarjan only when Kahn finds a cycle: most specifications are acyclic.
  if (!topological_comms(full, num_comms)) {
    cycles_ = cyclic_components(full, num_comms);
  }
  std::optional<std::vector<CommId>> order = topological_comms(cut, num_comms);
  cycle_safe_ = order.has_value();
  if (cycle_safe_) reliability_order_ = std::move(*order);
}

std::string Specification::describe_cycles() const {
  if (cycles_.empty()) return "memory-free (no communicator cycles)";
  std::string out;
  for (std::size_t k = 0; k < cycles_.size(); ++k) {
    out += "cycle " + std::to_string(k) + ": {";
    for (std::size_t j = 0; j < cycles_[k].size(); ++j) {
      if (j > 0) out += ", ";
      out += communicator(cycles_[k][j]).name;
    }
    out += "}\n";
  }
  return out;
}

Status Specification::require_cycle_safe(std::string_view what) const {
  if (cycle_safe_) return Status::Ok();
  return FailedPreconditionError(std::string(what) +
                                 " requires a cycle-safe specification:\n" +
                                 describe_cycles());
}

Result<Specification> Specification::Build(SpecificationConfig config) {
  Specification spec;
  spec.name_ = std::move(config.name);

  // --- communicators ---
  for (auto& comm : config.communicators) {
    LRT_RETURN_IF_ERROR(validate_communicator(comm));
    const auto id = static_cast<CommId>(spec.communicators_.size());
    if (!spec.comm_index_.emplace(comm.name, id).second) {
      return AlreadyExistsError("duplicate communicator '" + comm.name + "'");
    }
    spec.communicators_.push_back(std::move(comm));
  }
  if (spec.communicators_.empty()) {
    return InvalidArgumentError("specification '" + spec.name_ +
                                "' declares no communicators");
  }

  std::vector<Time> periods;
  periods.reserve(spec.communicators_.size());
  for (const auto& comm : spec.communicators_) periods.push_back(comm.period);
  spec.base_lcm_ = lcm_all(periods);
  spec.base_period_ = gcd_all(periods);

  const auto resolve = [&spec](const std::string& task_name,
                               const std::pair<std::string, std::int64_t>& ref,
                               bool is_output) -> Result<PortRef> {
    const auto it = spec.comm_index_.find(ref.first);
    if (it == spec.comm_index_.end()) {
      return NotFoundError("task '" + task_name +
                           "' references unknown communicator '" + ref.first +
                           "'");
    }
    if (ref.second < 0 || (is_output && ref.second == 0)) {
      return OutOfRangeError("task '" + task_name + "' " +
                             (is_output ? "writes" : "reads") +
                             " communicator '" + ref.first +
                             "' at invalid instance " +
                             std::to_string(ref.second));
    }
    return PortRef{it->second, ref.second};
  };

  // --- tasks ---
  spec.writers_.assign(spec.communicators_.size(), std::nullopt);
  spec.readers_.assign(spec.communicators_.size(), {});

  for (auto& task_config : config.tasks) {
    if (!is_identifier(task_config.name)) {
      return InvalidArgumentError("task name '" + task_config.name +
                                  "' is not a valid identifier");
    }
    const auto id = static_cast<TaskId>(spec.tasks_.size());
    if (!spec.task_index_.emplace(task_config.name, id).second) {
      return AlreadyExistsError("duplicate task '" + task_config.name + "'");
    }

    Task task;
    task.name = task_config.name;
    task.function = std::move(task_config.function);
    task.model = task_config.model;

    // Rule (1): all tasks read from and write to some communicator.
    if (task_config.inputs.empty()) {
      return InvalidArgumentError("task '" + task.name +
                                  "' reads no communicator (rule 1)");
    }
    if (task_config.outputs.empty()) {
      return InvalidArgumentError("task '" + task.name +
                                  "' writes no communicator (rule 1)");
    }

    for (const auto& ref : task_config.inputs) {
      LRT_ASSIGN_OR_RETURN(const PortRef port,
                           resolve(task.name, ref, /*is_output=*/false));
      task.inputs.push_back(port);
    }
    for (const auto& ref : task_config.outputs) {
      LRT_ASSIGN_OR_RETURN(const PortRef port,
                           resolve(task.name, ref, /*is_output=*/true));
      task.outputs.push_back(port);
    }

    // Defaults: one per input, conforming; empty list means "zero of type".
    if (task_config.defaults.empty()) {
      task.defaults.reserve(task.inputs.size());
      for (const PortRef& port : task.inputs) {
        task.defaults.push_back(
            zero_value(spec.communicator(port.comm).type));
      }
    } else if (task_config.defaults.size() == task.inputs.size()) {
      task.defaults = std::move(task_config.defaults);
      for (std::size_t j = 0; j < task.defaults.size(); ++j) {
        const ValueType type = spec.communicator(task.inputs[j].comm).type;
        if (task.defaults[j].is_bottom() ||
            !task.defaults[j].conforms_to(type)) {
          return InvalidArgumentError(
              "task '" + task.name + "' default #" + std::to_string(j) +
              " must be a non-bottom value of type " +
              std::string(to_string(type)));
        }
      }
    } else {
      return InvalidArgumentError(
          "task '" + task.name + "' declares " +
          std::to_string(task_config.defaults.size()) + " defaults for " +
          std::to_string(task.inputs.size()) + " inputs");
    }

    // Rule (4): no output instance written multiple times; and rule (3)
    // half: within this task, count writes per communicator are fine as
    // long as instances differ.
    std::set<PortRef> seen_outputs;
    for (const PortRef& port : task.outputs) {
      if (!seen_outputs.insert(port).second) {
        return InvalidArgumentError(
            "task '" + task.name + "' writes communicator '" +
            spec.communicator(port.comm).name + "' instance " +
            std::to_string(port.instance) + " multiple times (rule 4)");
      }
    }

    // Rule (3): no two tasks write to the same communicator.
    std::set<CommId> written;
    for (const PortRef& port : task.outputs) written.insert(port.comm);
    for (const CommId comm : written) {
      auto& writer = spec.writers_[static_cast<std::size_t>(comm)];
      if (writer.has_value() && *writer != id) {
        return InvalidArgumentError(
            "communicator '" + spec.communicator(comm).name +
            "' is written by both task '" +
            spec.task(*writer).name + "' and task '" + task.name +
            "' (rule 3)");
      }
      writer = id;
    }

    // Timing: read_t = max over inputs, write_t = min over outputs.
    Time read_time = 0;
    for (const PortRef& port : task.inputs) {
      read_time = std::max(
          read_time, spec.communicator(port.comm).period * port.instance);
    }
    Time write_time = INT64_MAX;
    for (const PortRef& port : task.outputs) {
      write_time = std::min(
          write_time, spec.communicator(port.comm).period * port.instance);
    }
    // Rule (2): strictly positive logical execution time.
    if (!(read_time < write_time)) {
      return InvalidArgumentError(
          "task '" + task.name + "' has read time " +
          std::to_string(read_time) + " not earlier than write time " +
          std::to_string(write_time) + " (rule 2)");
    }

    // icset_t and reader registration (distinct comms, first-use order).
    std::vector<CommId> icset;
    for (const PortRef& port : task.inputs) {
      if (std::find(icset.begin(), icset.end(), port.comm) == icset.end()) {
        icset.push_back(port.comm);
        spec.readers_[static_cast<std::size_t>(port.comm)].push_back(id);
      }
    }

    spec.read_times_.push_back(read_time);
    spec.write_times_.push_back(write_time);
    spec.input_comm_sets_.push_back(std::move(icset));
    spec.tasks_.push_back(std::move(task));
  }

  // pi_S = lcm(cset) * ceil(max_t write_t / lcm(cset)); when there are no
  // tasks the specification period is one lcm round.
  Time max_write = 0;
  for (const Time w : spec.write_times_) max_write = std::max(max_write, w);
  const Time rounds = std::max<Time>(1, ceil_div(max_write, spec.base_lcm_));
  spec.hyperperiod_ = spec.base_lcm_ * rounds;

  spec.derive_graph_facts();
  return spec;
}

std::optional<CommId> Specification::find_communicator(
    std::string_view name) const {
  const auto it = comm_index_.find(std::string(name));
  if (it == comm_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<TaskId> Specification::find_task(std::string_view name) const {
  const auto it = task_index_.find(std::string(name));
  if (it == task_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<TaskId> Specification::writer_of(CommId id) const {
  return writers_[static_cast<std::size_t>(id)];
}

SpecificationConfig Specification::to_config() const {
  SpecificationConfig config;
  config.name = name_;
  config.communicators = communicators_;
  config.tasks.reserve(tasks_.size());
  for (const Task& task : tasks_) {
    SpecificationConfig::TaskConfig task_config;
    task_config.name = task.name;
    for (const PortRef& port : task.inputs) {
      task_config.inputs.emplace_back(communicator(port.comm).name,
                                      port.instance);
    }
    for (const PortRef& port : task.outputs) {
      task_config.outputs.emplace_back(communicator(port.comm).name,
                                       port.instance);
    }
    task_config.function = task.function;
    task_config.model = task.model;
    task_config.defaults = task.defaults;
    config.tasks.push_back(std::move(task_config));
  }
  return config;
}

}  // namespace lrt::spec
