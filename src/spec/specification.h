// The specification S = (tset, cset): validated registry of communicators
// and tasks, with the derived timing quantities of paper Section 2
// (read/write times, the specification period pi_S) and classification of
// communicators (input / output / internal).
#ifndef LRT_SPEC_SPECIFICATION_H_
#define LRT_SPEC_SPECIFICATION_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "spec/declarations.h"
#include "support/status.h"

namespace lrt::spec {

/// Builder-side description of a specification. Names are resolved and the
/// paper's well-formedness rules are enforced by Specification::Build.
struct SpecificationConfig {
  std::string name = "spec";
  std::vector<Communicator> communicators;

  /// Task declaration with communicator references by name (resolved at
  /// Build time so configs can be written in any order).
  struct TaskConfig {
    std::string name;
    std::vector<std::pair<std::string, std::int64_t>> inputs;   ///< (comm, i)
    std::vector<std::pair<std::string, std::int64_t>> outputs;  ///< (comm, i)
    TaskFunction function;
    FailureModel model = FailureModel::kSeries;
    std::vector<Value> defaults;  ///< empty => zero_value per input type
  };
  std::vector<TaskConfig> tasks;
};

/// An immutable, validated specification.
///
/// Build() enforces (paper Section 2):
///   (1) every task reads some communicator and writes some communicator;
///   (2) every task's read time is strictly earlier than its write time;
///   (3) no two tasks write to the same communicator;
///   (4) no task writes a communicator instance multiple times;
/// plus basic sanity: unique identifier names, positive periods,
/// LRC in (0,1], init/default values conforming to declared types, and
/// nonnegative instance numbers (outputs strictly positive).
class Specification {
 public:
  /// Validates `config` and derives timing quantities.
  static Result<Specification> Build(SpecificationConfig config);

  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] const std::vector<Communicator>& communicators() const {
    return communicators_;
  }
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

  [[nodiscard]] const Communicator& communicator(CommId id) const {
    return communicators_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const Task& task(TaskId id) const {
    return tasks_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] std::optional<CommId> find_communicator(
      std::string_view name) const;
  [[nodiscard]] std::optional<TaskId> find_task(std::string_view name) const;

  /// Least common multiple of all communicator periods (lcm(cset)).
  [[nodiscard]] Time base_lcm() const { return base_lcm_; }

  /// The harmonic grid step gcd(cset): every access, read, and write
  /// instant is a multiple of it. Computed once at Build time — the
  /// simulation engines and benches share this value instead of
  /// re-deriving the gcd per run.
  [[nodiscard]] Time base_period() const { return base_period_; }

  /// The specification period pi_S = lcm(cset) * ceil(max_t write_t / lcm):
  /// all tasks repeat with this periodicity.
  [[nodiscard]] Time hyperperiod() const { return hyperperiod_; }

  /// read_t = max_j (pi_c * i) over inputs (c, i): the latest read instant.
  [[nodiscard]] Time read_time(TaskId id) const {
    return read_times_[static_cast<std::size_t>(id)];
  }
  /// write_t = min_k (pi_c * i) over outputs (c, i): the earliest write
  /// instant. The logical execution time of the task is
  /// [read_time, write_time).
  [[nodiscard]] Time write_time(TaskId id) const {
    return write_times_[static_cast<std::size_t>(id)];
  }

  /// The unique task writing communicator `id` (rule 3), if any. A
  /// communicator with no writer is an *input* communicator updated by a
  /// sensor.
  [[nodiscard]] std::optional<TaskId> writer_of(CommId id) const;

  /// Tasks reading communicator `id` (possibly empty).
  [[nodiscard]] const std::vector<TaskId>& readers_of(CommId id) const {
    return readers_[static_cast<std::size_t>(id)];
  }

  /// True iff no task writes `id` (to be driven by a sensor).
  [[nodiscard]] bool is_input_communicator(CommId id) const {
    return !writer_of(id).has_value();
  }
  /// True iff no task reads `id` (to be consumed by an actuator).
  [[nodiscard]] bool is_output_communicator(CommId id) const {
    return readers_of(id).empty();
  }

  /// icset_t: the distinct communicators read by task `id`, in first-use
  /// order. (Instance numbers are irrelevant for reliability.)
  [[nodiscard]] const std::vector<CommId>& input_comm_set(TaskId id) const {
    return input_comm_sets_[static_cast<std::size_t>(id)];
  }

  /// Number of instances of communicator `id` per specification period:
  /// hyperperiod / period. The instance grid is {0, 1, ..., count}, where
  /// instance `count` of one period coincides with instance 0 of the next.
  [[nodiscard]] std::int64_t instances_per_period(CommId id) const {
    return hyperperiod_ / communicator(id).period;
  }

  // --- dependency-level graph facts (paper Section 3) ---
  // Derived once at Build time from the dependency digraph over
  // communicators and tasks (c -> t when t reads c, t -> c when t writes
  // c), which has a cycle iff the instance-level graph G_S has a
  // communicator cycle. The instance-level graph itself lives in
  // SpecificationGraph.

  /// True iff the specification has no communicator cycle (Prop. 1's
  /// precondition).
  [[nodiscard]] bool is_memory_free() const { return cycles_.empty(); }

  /// True iff every communicator cycle contains a task with
  /// FailureModel::kIndependent — the paper's fix for specifications with
  /// memory. Memory-free specifications are trivially cycle-safe.
  [[nodiscard]] bool is_cycle_safe() const { return cycle_safe_; }

  /// The communicators involved in cycles, one entry per nontrivial
  /// strongly connected component of the dependency digraph.
  [[nodiscard]] const std::vector<std::vector<CommId>>& cycles() const {
    return cycles_;
  }

  /// Communicators in an order such that every communicator appears after
  /// all communicators its SRG depends on, where model-3 tasks cut the
  /// dependency on their inputs. Empty iff !is_cycle_safe() — exactly
  /// when the paper's SRG induction is ill-founded.
  [[nodiscard]] const std::vector<CommId>& reliability_order() const {
    return reliability_order_;
  }

  /// Human-readable multi-line description of the cycle structure, for
  /// diagnostics.
  [[nodiscard]] std::string describe_cycles() const;

  /// Ok when cycle-safe; otherwise kFailedPrecondition reading
  /// "<what> requires a cycle-safe specification:\n<describe_cycles()>".
  [[nodiscard]] Status require_cycle_safe(std::string_view what) const;

  /// Reconstructs a by-name config equivalent to this specification, with
  /// the Build-time materialized defaults and the task functions carried
  /// over. Build(to_config()) round-trips; spec::to_json(to_config())
  /// is the canonical wire document of this specification.
  [[nodiscard]] SpecificationConfig to_config() const;

 private:
  Specification() = default;

  /// Fills the graph facts from the dependency digraph.
  void derive_graph_facts();

  std::string name_;
  std::vector<Communicator> communicators_;
  std::vector<Task> tasks_;
  std::unordered_map<std::string, CommId> comm_index_;
  std::unordered_map<std::string, TaskId> task_index_;
  std::vector<Time> read_times_;
  std::vector<Time> write_times_;
  std::vector<std::optional<TaskId>> writers_;
  std::vector<std::vector<TaskId>> readers_;
  std::vector<std::vector<CommId>> input_comm_sets_;
  Time base_lcm_ = 1;
  Time base_period_ = 1;
  Time hyperperiod_ = 1;
  std::vector<std::vector<CommId>> cycles_;
  std::vector<CommId> reliability_order_;
  bool cycle_safe_ = true;
};

}  // namespace lrt::spec

#endif  // LRT_SPEC_SPECIFICATION_H_
