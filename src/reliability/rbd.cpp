#include "reliability/rbd.h"

#include <cassert>

#include "support/math_util.h"
#include "support/strings.h"

namespace lrt::reliability {

Rbd::NodeId Rbd::add(Node node) {
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size()) - 1;
}

Rbd::NodeId Rbd::component(double reliability, std::string label) {
  assert(is_probability(reliability));
  Node node;
  node.kind = Kind::kComponent;
  node.reliability = reliability;
  node.label = std::move(label);
  return add(std::move(node));
}

Rbd::NodeId Rbd::series(std::vector<NodeId> children) {
  assert(!children.empty());
  Node node;
  node.kind = Kind::kSeries;
  node.children = std::move(children);
  return add(std::move(node));
}

Rbd::NodeId Rbd::parallel(std::vector<NodeId> children) {
  assert(!children.empty());
  Node node;
  node.kind = Kind::kParallel;
  node.children = std::move(children);
  return add(std::move(node));
}

Rbd::NodeId Rbd::k_of_n(int k, std::vector<NodeId> children) {
  assert(k >= 1 && k <= static_cast<int>(children.size()));
  Node node;
  node.kind = Kind::kKofN;
  node.k = k;
  node.children = std::move(children);
  return add(std::move(node));
}

double Rbd::reliability(NodeId id) const {
  const Node& node = nodes_[static_cast<std::size_t>(id)];
  switch (node.kind) {
    case Kind::kComponent:
      return node.reliability;
    case Kind::kSeries: {
      double all = 1.0;
      for (const NodeId child : node.children) all *= reliability(child);
      return all;
    }
    case Kind::kParallel: {
      double none = 1.0;
      for (const NodeId child : node.children) {
        none *= 1.0 - reliability(child);
      }
      return 1.0 - none;
    }
    case Kind::kKofN: {
      // dp[j]: probability that exactly j of the processed children work.
      std::vector<double> dp(node.children.size() + 1, 0.0);
      dp[0] = 1.0;
      std::size_t processed = 0;
      for (const NodeId child : node.children) {
        const double p = reliability(child);
        ++processed;
        for (std::size_t j = processed; j > 0; --j) {
          dp[j] = dp[j] * (1.0 - p) + dp[j - 1] * p;
        }
        dp[0] *= 1.0 - p;
      }
      double at_least_k = 0.0;
      for (std::size_t j = static_cast<std::size_t>(node.k);
           j <= node.children.size(); ++j) {
        at_least_k += dp[j];
      }
      return at_least_k;
    }
  }
  return 0.0;
}

std::string Rbd::to_string(NodeId id) const {
  const Node& node = nodes_[static_cast<std::size_t>(id)];
  switch (node.kind) {
    case Kind::kComponent:
      return (node.label.empty() ? "c" : node.label) + "=" +
             format_double(node.reliability);
    case Kind::kSeries:
    case Kind::kParallel:
    case Kind::kKofN: {
      std::string out = node.kind == Kind::kSeries ? "AND("
                        : node.kind == Kind::kParallel
                            ? "OR("
                            : std::to_string(node.k) + "-of-" +
                                  std::to_string(node.children.size()) + "(";
      for (std::size_t i = 0; i < node.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += to_string(node.children[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

namespace {

/// Recursively expands communicator `comm` into `rbd`, per the SRG rules.
Rbd::NodeId expand(const impl::Implementation& impl, Rbd& rbd,
                   spec::CommId comm) {
  const spec::Specification& spec = impl.specification();
  const arch::Architecture& arch = impl.architecture();

  const auto writer = spec.writer_of(comm);
  if (!writer.has_value()) {
    if (spec.is_input_communicator(comm) && !spec.readers_of(comm).empty()) {
      const arch::Sensor& sensor = arch.sensor(impl.sensor_for(comm));
      return rbd.component(sensor.reliability, sensor.name);
    }
    // Never updated: the initial value persists reliably.
    return rbd.component(1.0, spec.communicator(comm).name + "_init");
  }

  const spec::TaskId t = *writer;
  const spec::Task& task = spec.task(t);
  // Replication set: an OR junction of host components.
  std::vector<Rbd::NodeId> replicas;
  for (const arch::HostId h : impl.hosts_for(t)) {
    replicas.push_back(
        rbd.component(arch.host(h).reliability, arch.host(h).name));
  }
  const Rbd::NodeId task_node =
      replicas.size() == 1 ? replicas.front() : rbd.parallel(replicas);

  if (task.model == spec::FailureModel::kIndependent) return task_node;

  std::vector<Rbd::NodeId> inputs;
  for (const spec::CommId in : spec.input_comm_set(t)) {
    inputs.push_back(expand(impl, rbd, in));
  }
  if (task.model == spec::FailureModel::kSeries) {
    std::vector<Rbd::NodeId> children = {task_node};
    children.insert(children.end(), inputs.begin(), inputs.end());
    return rbd.series(std::move(children));
  }
  // Parallel model: the task in series with an OR over its inputs.
  const Rbd::NodeId any_input =
      inputs.size() == 1 ? inputs.front() : rbd.parallel(inputs);
  return rbd.series({task_node, any_input});
}

}  // namespace

Result<SrgRbd> build_srg_rbd(const impl::Implementation& impl,
                             spec::CommId comm) {
  const spec::Specification& spec = impl.specification();
  if (comm < 0 ||
      comm >= static_cast<spec::CommId>(spec.communicators().size())) {
    return OutOfRangeError("build_srg_rbd: communicator id out of range");
  }
  LRT_RETURN_IF_ERROR(spec.require_cycle_safe("build_srg_rbd"));
  SrgRbd result;
  result.root = expand(impl, result.rbd, comm);
  return result;
}

}  // namespace lrt::reliability
