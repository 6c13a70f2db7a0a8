// The SRG kernel: the paper's Section-3 induction over flat state, shared
// by the one-shot analysis and the synthesis/lrtd fast paths.
//
// reliability::analyze() is a thin verdict layer over this evaluator: it
// snapshots an implementation (FromImplementation: every lambda_t, then
// one pass over the specification's cached reliability order) and reads
// the report off the result. A synthesis search evaluates thousands of
// candidate mappings that differ in a *single* task's host set; the SRG
// induction is monotone and local, so changing I(t) can only affect
// lambda_t and the SRGs of communicators downstream of t (where
// independent-model tasks cut the dataflow). SrgEvaluator exploits this:
//
//  * the topological order of the (model-3-cut) dataflow is the one
//    Specification::Build derived;
//  * per-task lambda_t and per-communicator SRGs live in flat
//    std::vector<double> state; evaluating a single-task host-set change
//    re-propagates only through the dirty downstream cone, with no
//    impl::Implementation::Build and no per-candidate allocation;
//  * an undo trail (mark()/rollback()) lets a branch-and-bound search
//    backtrack in O(|changes|) without re-propagating.
//
// Bit-identity contract: after any sequence of set_task_hosts() calls and
// rollbacks, srgs() is bitwise identical to a from-scratch evaluation of
// the same host sets, sensor bindings, and re-execution counts — every
// value is the same pure function of its inputs (math_util's series_and /
// parallel_or, std::pow; hosts ascending, inputs in input_comm_set order).
// tests/incremental_test.cpp enforces this against an independent
// induction oracle (tests/srg_oracle.h) on randomized workloads and
// mutations.
#ifndef LRT_RELIABILITY_INCREMENTAL_H_
#define LRT_RELIABILITY_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "impl/implementation.h"
#include "support/status.h"

namespace lrt::reliability {

/// lambda_t of a task replicated on `hosts` (ascending) with
/// `reexecutions` re-executions per invocation: each host succeeds with
/// 1 - (1 - hrel)^(k+1), and at least one replication must survive.
/// `scratch` is reused storage, so hot loops do not allocate.
[[nodiscard]] double replicated_reliability(
    const arch::Architecture& arch, std::span<const arch::HostId> hosts,
    int reexecutions, std::vector<double>& scratch);

class SrgEvaluator {
 public:
  /// Builds the evaluator for (spec, arch) with the given sensor binding
  /// per communicator (by CommId; -1 = unbound, required to be bound for
  /// every read input communicator) and re-execution count per task
  /// (empty = none anywhere). Every task starts with an empty host set
  /// (lambda_t = 0); call set_task_hosts() to populate. `spec` and `arch`
  /// must outlive the evaluator. Fails with kFailedPrecondition when the
  /// specification is not cycle-safe (the induction is ill-founded) and
  /// kInvalidArgument for missing/out-of-range bindings.
  static Result<SrgEvaluator> Create(const spec::Specification& spec,
                                     const arch::Architecture& arch,
                                     std::vector<arch::SensorId> sensor_by_comm,
                                     std::vector<int> reexecutions = {});

  /// Evaluator snapshotting an existing implementation's sensor bindings,
  /// re-execution counts, and host sets, computed in one SRG pass. This is
  /// the analysis kernel: compute_srgs(impl) is its srgs().
  static Result<SrgEvaluator> FromImplementation(
      const impl::Implementation& impl);

  /// The specification the evaluator was built for.
  [[nodiscard]] const spec::Specification& specification() const {
    return *spec_;
  }

  /// Replaces I(t) and re-propagates SRGs through the dirty downstream
  /// cone. `hosts` must be duplicate-free and ascending (the order
  /// Implementation stores, which the bit-identity contract depends on).
  /// Returns the number of communicator updates performed (0 when the new
  /// host set yields the same lambda_t).
  std::size_t set_task_hosts(spec::TaskId task,
                             std::span<const arch::HostId> hosts);

  // --- current state ---
  [[nodiscard]] const std::vector<double>& srgs() const { return srg_; }
  [[nodiscard]] double srg(spec::CommId c) const {
    return srg_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double task_lambda(spec::TaskId t) const {
    return lambda_[static_cast<std::size_t>(t)];
  }
  /// lambda_c - mu_c of communicator `c` under the current assignment.
  [[nodiscard]] double slack(spec::CommId c) const;
  /// approx_ge(lambda_c, mu_c), exactly analyze()'s verdict.
  [[nodiscard]] bool satisfied(spec::CommId c) const {
    return satisfied_[static_cast<std::size_t>(c)] != 0;
  }
  /// True iff every non-relaxed communicator's LRC holds. O(1): the
  /// violation count is maintained incrementally.
  [[nodiscard]] bool all_lrcs_satisfied() const { return unsatisfied_ == 0; }

  /// Declares the waived-LRC set (the synthesis options' relaxed_lrcs).
  /// Relaxed communicators keep their SRGs but stop counting as
  /// violations. Ids must be in range.
  void set_relaxed(std::span<const spec::CommId> relaxed);

  // --- backtracking ---
  /// An undo-trail position. Changes after mark() can be reverted with
  /// rollback(); marks nest (LIFO).
  using Mark = std::size_t;
  [[nodiscard]] Mark mark() const { return trail_.size(); }
  /// Reverts every lambda/SRG change recorded after `m`, restoring
  /// bit-identical state (including the violation count).
  void rollback(Mark m);
  /// Drops the undo history (long-running callers that never roll back).
  void discard_trail() { trail_.clear(); }

  // --- effort counters ---
  /// Total communicator SRG recomputations across all set_task_hosts
  /// calls (the "dirty cone" work; a full analyze() costs |cset|).
  [[nodiscard]] std::int64_t comm_updates() const { return comm_updates_; }
  /// Number of set_task_hosts calls.
  [[nodiscard]] std::int64_t evals() const { return evals_; }

 private:
  SrgEvaluator() = default;

  /// The static structure, with flat state sized but not yet computed.
  static Result<SrgEvaluator> Prepare(const spec::Specification& spec,
                                      const arch::Architecture& arch,
                                      std::vector<arch::SensorId> sensor_by_comm,
                                      std::vector<int> reexecutions);

  /// How a communicator's SRG is produced (paper Section 3 rules).
  enum class Rule : std::uint8_t { kConstantOne, kSensor, kTask };

  void store_srg(std::size_t c, double value);
  void store_lambda(std::size_t t, double value);
  [[nodiscard]] double compute_rule(std::size_t c);
  [[nodiscard]] double lambda_for(std::size_t t,
                                  std::span<const arch::HostId> hosts);
  /// Every SRG in reliability order plus the verdict flags, unrecorded.
  void full_pass();
  void propagate();
  void refresh_satisfied(std::size_t c);

  const spec::Specification* spec_ = nullptr;
  const arch::Architecture* arch_ = nullptr;

  // Static structure (built once).
  std::vector<int> topo_pos_;  // by CommId, into reliability_order()
  std::vector<Rule> rule_;                      // by CommId
  std::vector<double> sensor_rel_;              // by CommId (kSensor only)
  std::vector<spec::TaskId> writer_;            // by CommId (-1 = none)
  std::vector<double> lrc_;                     // by CommId
  std::vector<std::vector<spec::CommId>> task_outputs_;     // by TaskId
  std::vector<std::vector<spec::CommId>> downstream_;       // by CommId
  std::vector<int> reexecutions_;               // by TaskId

  // Flat mutable state.
  std::vector<double> srg_;           // by CommId
  std::vector<double> lambda_;        // by TaskId
  std::vector<std::uint8_t> satisfied_;  // by CommId
  std::vector<std::uint8_t> relaxed_;    // by CommId
  std::int64_t unsatisfied_ = 0;  // non-relaxed communicators violated

  // Reused buffers (no per-candidate allocation in steady state).
  std::vector<double> input_buf_;
  std::vector<double> host_rel_buf_;
  std::vector<int> heap_;                 // topo positions, min-heap
  std::vector<std::uint8_t> dirty_;       // by CommId

  // Undo trail: slot < |cset| is an SRG, slot >= |cset| is a lambda.
  struct TrailEntry {
    std::int32_t slot;
    double old_value;
  };
  std::vector<TrailEntry> trail_;

  std::int64_t comm_updates_ = 0;
  std::int64_t evals_ = 0;
};

}  // namespace lrt::reliability

#endif  // LRT_RELIABILITY_INCREMENTAL_H_
