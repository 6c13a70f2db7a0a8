// The instance-level specification graph G_S of paper Section 3: one
// vertex per communicator instance (c, i), i in {0..pi_S/pi_c}, and per
// task — exactly the paper's V_S / E_S (persistence edges are stored
// between consecutive instances, which preserves reachability with
// linearly many edges).
//
// The dependency-level facts (memory freedom, cycle safety, cycles, the
// SRG reliability order) are derived once by Specification::Build and
// read from there; this graph is only needed for the instance-level view
// (rendering, instance queries).
#ifndef LRT_SPEC_SPEC_GRAPH_H_
#define LRT_SPEC_SPEC_GRAPH_H_

#include <string>
#include <vector>

#include "spec/specification.h"
#include "support/status.h"

namespace lrt::spec {

/// Vertex of the instance-level specification graph.
struct SpecVertex {
  enum class Kind { kCommInstance, kTask };
  Kind kind = Kind::kTask;
  /// For kCommInstance: the (c, i) pair. For kTask: comm == -1.
  PortRef port;
  /// For kTask: the task. For kCommInstance: -1.
  TaskId task = -1;
};

class SpecificationGraph {
 public:
  /// Builds both graph levels. `spec` must outlive the graph.
  explicit SpecificationGraph(const Specification& spec);

  // --- instance level (paper V_S, E_S) ---
  [[nodiscard]] const std::vector<SpecVertex>& vertices() const {
    return vertices_;
  }
  /// Adjacency by vertex index into vertices().
  [[nodiscard]] const std::vector<std::vector<int>>& edges() const {
    return edges_;
  }
  [[nodiscard]] std::size_t edge_count() const;

  /// Index of vertex (c, i) in vertices(). Precondition: in range.
  [[nodiscard]] int comm_instance_vertex(CommId comm,
                                         std::int64_t instance) const;
  /// Index of the task vertex.
  [[nodiscard]] int task_vertex(TaskId task) const;

  // --- cycle facts (derived once by Specification::Build) ---
  [[nodiscard]] bool is_memory_free() const { return spec_.is_memory_free(); }
  [[nodiscard]] bool is_cycle_safe() const { return spec_.is_cycle_safe(); }

  /// Graphviz rendering of the instance-level graph: communicator
  /// instances as ellipses "c@i", tasks as boxes; pipe into `dot -Tsvg`.
  [[nodiscard]] std::string to_dot() const;

 private:
  void build_instance_graph();

  const Specification& spec_;

  std::vector<SpecVertex> vertices_;
  std::vector<std::vector<int>> edges_;
  std::vector<int> comm_vertex_base_;  // per comm, index of (c, 0)
  std::vector<int> task_vertex_base_;  // per task
};

}  // namespace lrt::spec

#endif  // LRT_SPEC_SPEC_GRAPH_H_
