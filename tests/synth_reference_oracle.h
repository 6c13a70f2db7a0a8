// The reference replication synthesis for differential tests: the
// original build-and-analyze search. Every candidate mapping is built with
// impl::Implementation::Build and judged by reliability::analyze and
// sched::analyze_schedulability from scratch, and the exhaustive strategy
// is a plain depth-first search with only the cost bound. It shares
// nothing with the production engine (src/synth/fast_engine.cpp) but
// internal::candidate_subsets and internal::assignment_config, which
// define the search order and the shape of the result — not the SRG
// evaluator, not the SRG-ceiling pruning, not the memoized EDF gate, not
// the timing tables — so agreement is evidence, not tautology.
//
// Orders of magnitude slower than production: keep workloads small.
#ifndef LRT_TESTS_SYNTH_REFERENCE_ORACLE_H_
#define LRT_TESTS_SYNTH_REFERENCE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "reliability/analysis.h"
#include "sched/schedulability.h"
#include "synth/fast_engine.h"
#include "synth/synthesis.h"

namespace lrt::test {

namespace synth_oracle_detail {

using arch::HostId;
using spec::CommId;
using spec::TaskId;
using synth::SynthesisOptions;
using synth::SynthesisResult;

/// Builds candidate Implementations and evaluates validity (reliability +
/// optional schedulability) from scratch per candidate.
class Evaluator {
 public:
  Evaluator(const spec::Specification& spec, const arch::Architecture& arch,
            std::vector<impl::ImplementationConfig::SensorBinding> bindings,
            std::vector<HostId> usable, const SynthesisOptions& options)
      : spec_(spec), arch_(arch), bindings_(std::move(bindings)),
        usable_(std::move(usable)), options_(options) {
    relaxed_.assign(spec.communicators().size(), false);
    for (const CommId c : options.relaxed_lrcs) {
      relaxed_[static_cast<std::size_t>(c)] = true;
    }
  }

  [[nodiscard]] impl::ImplementationConfig to_config(
      const std::vector<std::vector<HostId>>& assignment) const {
    return synth::internal::assignment_config(spec_, arch_, bindings_,
                                              assignment, options_);
  }

  /// True iff the mapping is valid: every unrelaxed LRC satisfied, and
  /// (optionally) schedulable. A schedulability lookup error (a missing
  /// WCET/WCTT) is returned as is.
  [[nodiscard]] Result<bool> valid(
      const std::vector<std::vector<HostId>>& assignment) {
    ++candidates_;
    auto impl_result =
        impl::Implementation::Build(spec_, arch_, to_config(assignment));
    if (!impl_result.ok()) return impl_result.status();
    LRT_ASSIGN_OR_RETURN(const reliability::ReliabilityReport report,
                         reliability::analyze(*impl_result));
    for (const reliability::CommunicatorVerdict& verdict : report.verdicts) {
      if (!verdict.satisfied && !relaxed(verdict.comm)) return false;
    }
    if (options_.require_schedulable) {
      LRT_ASSIGN_OR_RETURN(const sched::SchedulabilityReport sched_report,
                           sched::analyze_schedulability(*impl_result));
      if (!sched_report.schedulable) return false;
    }
    return true;
  }

  [[nodiscard]] Result<reliability::ReliabilityReport> report(
      const std::vector<std::vector<HostId>>& assignment) {
    auto impl_result =
        impl::Implementation::Build(spec_, arch_, to_config(assignment));
    if (!impl_result.ok()) return impl_result.status();
    return reliability::analyze(*impl_result);
  }

  [[nodiscard]] std::int64_t candidates() const { return candidates_; }
  [[nodiscard]] bool relaxed(CommId comm) const {
    return relaxed_[static_cast<std::size_t>(comm)];
  }
  [[nodiscard]] const spec::Specification& spec() const { return spec_; }
  [[nodiscard]] const arch::Architecture& arch() const { return arch_; }
  [[nodiscard]] const std::vector<HostId>& usable() const { return usable_; }

 private:
  const spec::Specification& spec_;
  const arch::Architecture& arch_;
  std::vector<impl::ImplementationConfig::SensorBinding> bindings_;
  std::vector<HostId> usable_;
  std::vector<bool> relaxed_;  // by CommId
  const SynthesisOptions& options_;
  std::int64_t candidates_ = 0;
};

inline Result<SynthesisResult> exhaustive(Evaluator& evaluator,
                                          const SynthesisOptions& options) {
  const auto num_tasks =
      static_cast<TaskId>(evaluator.spec().tasks().size());
  const std::vector<std::vector<HostId>> subsets =
      synth::internal::candidate_subsets(evaluator.arch(), evaluator.usable(),
                                         options.max_replication_per_task);

  std::vector<std::vector<HostId>> assignment(
      static_cast<std::size_t>(num_tasks));
  std::vector<std::vector<HostId>> best;
  std::size_t best_cost = SIZE_MAX;

  // Depth-first over tasks; prune when the partial cost plus one replica
  // per remaining task cannot beat the incumbent. A pinned task explores
  // exactly its pinned set. The first error aborts the search.
  const std::function<Status(TaskId, std::size_t)> descend =
      [&](TaskId t, std::size_t cost) -> Status {
    if (cost + static_cast<std::size_t>(num_tasks - t) >= best_cost) {
      return Status::Ok();  // bound
    }
    if (t == num_tasks) {
      LRT_ASSIGN_OR_RETURN(const bool ok, evaluator.valid(assignment));
      if (ok) {
        best = assignment;
        best_cost = cost;
      }
      return Status::Ok();
    }
    if (!options.pinned_hosts.empty() &&
        !options.pinned_hosts[static_cast<std::size_t>(t)].empty()) {
      const std::vector<HostId>& pinned =
          options.pinned_hosts[static_cast<std::size_t>(t)];
      assignment[static_cast<std::size_t>(t)] = pinned;
      return descend(t + 1, cost + pinned.size());
    }
    for (const std::vector<HostId>& subset : subsets) {
      assignment[static_cast<std::size_t>(t)] = subset;
      LRT_RETURN_IF_ERROR(descend(t + 1, cost + subset.size()));
    }
    return Status::Ok();
  };
  LRT_RETURN_IF_ERROR(descend(0, 0));

  if (best_cost == SIZE_MAX) {
    return UnsatisfiableError(
        "no replication mapping satisfies every LRC (and schedulability) "
        "within the configured bounds");
  }
  SynthesisResult result;
  result.config = evaluator.to_config(best);
  result.replication_count = best_cost;
  result.candidates_evaluated = evaluator.candidates();
  result.full_evals = evaluator.candidates();
  return result;
}

inline Result<SynthesisResult> greedy(Evaluator& evaluator,
                                      const SynthesisOptions& options) {
  const spec::Specification& spec = evaluator.spec();
  const arch::Architecture& arch = evaluator.arch();
  const auto num_tasks = static_cast<TaskId>(spec.tasks().size());
  const std::vector<HostId>& usable = evaluator.usable();

  // Start: every task on the single most reliable usable host; a pinned
  // task starts (and stays) on its pinned set.
  HostId best_host = usable.front();
  for (const HostId h : usable) {
    if (arch.host(h).reliability > arch.host(best_host).reliability) {
      best_host = h;
    }
  }
  const auto pinned_set = [&options](TaskId t) -> const std::vector<HostId>* {
    if (options.pinned_hosts.empty()) return nullptr;
    const auto& pinned = options.pinned_hosts[static_cast<std::size_t>(t)];
    return pinned.empty() ? nullptr : &pinned;
  };
  std::vector<std::vector<HostId>> assignment(
      static_cast<std::size_t>(num_tasks), std::vector<HostId>{best_host});
  for (TaskId t = 0; t < num_tasks; ++t) {
    if (const std::vector<HostId>* pinned = pinned_set(t)) {
      assignment[static_cast<std::size_t>(t)] = *pinned;
    }
  }

  // Support set of a communicator: the tasks whose reliability its SRG
  // depends on (writer, then transitively the writers of its inputs,
  // stopping at independent-model tasks).
  const auto support = [&spec](CommId comm) {
    std::vector<TaskId> tasks;
    std::set<CommId> visited;
    std::vector<CommId> stack = {comm};
    while (!stack.empty()) {
      const CommId c = stack.back();
      stack.pop_back();
      if (!visited.insert(c).second) continue;
      const auto writer = spec.writer_of(c);
      if (!writer.has_value()) continue;
      tasks.push_back(*writer);
      if (spec.task(*writer).model != spec::FailureModel::kIndependent) {
        for (const CommId in : spec.input_comm_set(*writer)) {
          stack.push_back(in);
        }
      }
    }
    return tasks;
  };

  const std::size_t max_total =
      static_cast<std::size_t>(num_tasks) *
      std::min<std::size_t>(usable.size(),
                            static_cast<std::size_t>(
                                options.max_replication_per_task));
  while (true) {
    LRT_ASSIGN_OR_RETURN(const bool ok, evaluator.valid(assignment));
    if (ok) break;

    LRT_ASSIGN_OR_RETURN(const reliability::ReliabilityReport report,
                         evaluator.report(assignment));
    auto violations = report.violations();
    std::erase_if(violations,
                  [&evaluator](const reliability::CommunicatorVerdict& v) {
                    return evaluator.relaxed(v.comm);
                  });
    if (violations.empty()) {
      // Reliable but unschedulable: replication only adds load, so greedy
      // cannot repair it.
      return UnsatisfiableError(
          "greedy synthesis: mapping is reliable but not schedulable; "
          "no repair move available");
    }
    // Most-violated communicator first.
    const auto worst = std::min_element(
        violations.begin(), violations.end(),
        [](const reliability::CommunicatorVerdict& a,
           const reliability::CommunicatorVerdict& b) {
          return a.slack < b.slack;
        });

    // Best move: add the most reliable unused host to the support task
    // with the lowest current task reliability.
    TaskId move_task = -1;
    HostId move_host = -1;
    double move_score = -1.0;
    for (const TaskId t : support(worst->comm)) {
      if (pinned_set(t) != nullptr) continue;  // pinned: not a repair knob
      auto& hosts = assignment[static_cast<std::size_t>(t)];
      if (static_cast<int>(hosts.size()) >=
          options.max_replication_per_task) {
        continue;
      }
      for (const HostId h : usable) {
        if (std::find(hosts.begin(), hosts.end(), h) != hosts.end()) continue;
        // Marginal gain on lambda_t of adding h to t.
        double fail = 1.0;
        for (const HostId existing : hosts) {
          fail *= 1.0 - arch.host(existing).reliability;
        }
        const double gain = fail * arch.host(h).reliability;
        if (gain > move_score) {
          move_score = gain;
          move_task = t;
          move_host = h;
        }
      }
    }
    if (move_task == -1) {
      return UnsatisfiableError(
          "greedy synthesis: LRC of '" + worst->name +
          "' unmet and every supporting task is fully replicated");
    }
    auto& hosts = assignment[static_cast<std::size_t>(move_task)];
    hosts.push_back(move_host);
    std::sort(hosts.begin(), hosts.end());

    std::size_t total = 0;
    for (const auto& set : assignment) total += set.size();
    if (total > max_total) {
      return InternalError("greedy synthesis failed to terminate");
    }
  }

  SynthesisResult result;
  result.config = evaluator.to_config(assignment);
  for (const auto& set : assignment) result.replication_count += set.size();
  result.candidates_evaluated = evaluator.candidates();
  result.full_evals = evaluator.candidates();
  return result;
}

}  // namespace synth_oracle_detail

/// The reference answer to synth::synthesize for VALID options (the
/// oracle normalizes allowed_hosts and pinned_hosts as synthesize does
/// but checks nothing else; options.threads is ignored). full_evals and
/// candidates_evaluated count one full build-and-analyze per candidate.
inline Result<synth::SynthesisResult> oracle_synthesize(
    const spec::Specification& spec, const arch::Architecture& arch,
    std::vector<impl::ImplementationConfig::SensorBinding> bindings,
    const synth::SynthesisOptions& requested) {
  LRT_RETURN_IF_ERROR(spec.require_cycle_safe("synthesis"));
  synth::SynthesisOptions options = requested;
  std::vector<arch::HostId> usable = options.allowed_hosts;
  if (usable.empty()) {
    for (arch::HostId h = 0; h < static_cast<arch::HostId>(arch.hosts().size());
         ++h) {
      usable.push_back(h);
    }
  }
  std::sort(usable.begin(), usable.end());
  usable.erase(std::unique(usable.begin(), usable.end()), usable.end());
  for (std::vector<arch::HostId>& pinned : options.pinned_hosts) {
    std::sort(pinned.begin(), pinned.end());
    pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
  }
  synth_oracle_detail::Evaluator evaluator(spec, arch, std::move(bindings),
                                           std::move(usable), options);
  return options.strategy == synth::SynthesisOptions::Strategy::kExhaustive
             ? synth_oracle_detail::exhaustive(evaluator, options)
             : synth_oracle_detail::greedy(evaluator, options);
}

}  // namespace lrt::test

#endif  // LRT_TESTS_SYNTH_REFERENCE_ORACLE_H_
