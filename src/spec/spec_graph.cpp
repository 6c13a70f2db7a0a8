#include "spec/spec_graph.h"

#include <cassert>
#include <numeric>
#include <set>

namespace lrt::spec {

SpecificationGraph::SpecificationGraph(const Specification& spec)
    : spec_(spec) {
  build_instance_graph();
}

void SpecificationGraph::build_instance_graph() {
  // Vertices: (c, i) for i in 0..pi_S/pi_c, then tasks.
  for (CommId c = 0; c < static_cast<CommId>(spec_.communicators().size());
       ++c) {
    comm_vertex_base_.push_back(static_cast<int>(vertices_.size()));
    const std::int64_t instances = spec_.instances_per_period(c);
    for (std::int64_t i = 0; i <= instances; ++i) {
      vertices_.push_back(
          {SpecVertex::Kind::kCommInstance, PortRef{c, i}, -1});
    }
  }
  for (TaskId t = 0; t < static_cast<TaskId>(spec_.tasks().size()); ++t) {
    task_vertex_base_.push_back(static_cast<int>(vertices_.size()));
    vertices_.push_back({SpecVertex::Kind::kTask, PortRef{-1, 0}, t});
  }
  edges_.assign(vertices_.size(), {});

  // Which instances of each communicator are written by a task?
  std::vector<std::set<std::int64_t>> written(spec_.communicators().size());
  for (const Task& task : spec_.tasks()) {
    for (const PortRef& port : task.outputs) {
      written[static_cast<std::size_t>(port.comm)].insert(port.instance);
    }
  }

  // Input/output edges.
  for (TaskId t = 0; t < static_cast<TaskId>(spec_.tasks().size()); ++t) {
    const Task& task = spec_.task(t);
    const auto tv = static_cast<std::size_t>(task_vertex(t));
    for (const PortRef& port : task.inputs) {
      edges_[static_cast<std::size_t>(
                 comm_instance_vertex(port.comm, port.instance))]
          .push_back(static_cast<int>(tv));
    }
    for (const PortRef& port : task.outputs) {
      edges_[tv].push_back(comm_instance_vertex(port.comm, port.instance));
    }
  }

  // Persistence edges (c, i) -> (c, i+1) when no task writes (c, i+1):
  // the value survives the instant. Consecutive edges preserve the paper's
  // reachability relation with O(instances) edges.
  for (CommId c = 0; c < static_cast<CommId>(spec_.communicators().size());
       ++c) {
    const std::int64_t instances = spec_.instances_per_period(c);
    for (std::int64_t i = 0; i < instances; ++i) {
      if (written[static_cast<std::size_t>(c)].count(i + 1) == 0) {
        edges_[static_cast<std::size_t>(comm_instance_vertex(c, i))]
            .push_back(comm_instance_vertex(c, i + 1));
      }
    }
  }
}

std::size_t SpecificationGraph::edge_count() const {
  return std::accumulate(edges_.begin(), edges_.end(), std::size_t{0},
                         [](std::size_t acc, const std::vector<int>& adj) {
                           return acc + adj.size();
                         });
}

int SpecificationGraph::comm_instance_vertex(CommId comm,
                                             std::int64_t instance) const {
  assert(comm >= 0 &&
         comm < static_cast<CommId>(spec_.communicators().size()));
  assert(instance >= 0 && instance <= spec_.instances_per_period(comm));
  return comm_vertex_base_[static_cast<std::size_t>(comm)] +
         static_cast<int>(instance);
}

int SpecificationGraph::task_vertex(TaskId task) const {
  assert(task >= 0 && task < static_cast<TaskId>(spec_.tasks().size()));
  return task_vertex_base_[static_cast<std::size_t>(task)];
}

std::string SpecificationGraph::to_dot() const {
  std::string out = "digraph \"" + spec_.name() + "\" {\n  rankdir=LR;\n";
  const auto node_name = [this](int v) {
    const SpecVertex& vertex = vertices_[static_cast<std::size_t>(v)];
    if (vertex.kind == SpecVertex::Kind::kTask) {
      return "\"" + spec_.task(vertex.task).name + "\"";
    }
    return "\"" + spec_.communicator(vertex.port.comm).name + "@" +
           std::to_string(vertex.port.instance) + "\"";
  };
  for (int v = 0; v < static_cast<int>(vertices_.size()); ++v) {
    const SpecVertex& vertex = vertices_[static_cast<std::size_t>(v)];
    out += "  " + node_name(v);
    out += vertex.kind == SpecVertex::Kind::kTask
               ? " [shape=box, style=filled, fillcolor=lightblue];\n"
               : " [shape=ellipse];\n";
  }
  for (int v = 0; v < static_cast<int>(vertices_.size()); ++v) {
    for (const int w : edges_[static_cast<std::size_t>(v)]) {
      out += "  " + node_name(v) + " -> " + node_name(w) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace lrt::spec
