#include "synth/synthesis.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>

#include "reliability/analysis.h"
#include "sched/schedulability.h"
#include "synth/fast_engine.h"

namespace lrt::synth {
namespace {

using arch::HostId;
using spec::CommId;
using spec::TaskId;

/// Reference-engine search state: builds candidate Implementations and
/// evaluates validity (reliability + optional schedulability) from
/// scratch per candidate. Kept verbatim as the differential oracle for
/// the fast engine (tests assert identical mappings) and as the bench
/// baseline the speedup numbers are measured against.
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

  /// Builds the ImplementationConfig for an assignment (host set per task).
  [[nodiscard]] impl::ImplementationConfig to_config(
      const std::vector<std::vector<HostId>>& assignment) const {
    return internal::assignment_config(spec_, arch_, bindings_, assignment,
                                       options_);
  }

  /// Evaluates an assignment; true iff the mapping is valid: every
  /// unrelaxed LRC satisfied, and (optionally) schedulable.
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

  /// Reliability report for an assignment (used by the greedy repair loop).
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

  const spec::Specification& spec() const { return spec_; }
  const arch::Architecture& arch() const { return arch_; }
  /// Hosts the search may use, ascending and duplicate-free.
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

Result<SynthesisResult> reference_exhaustive(Evaluator& evaluator,
                                             const SynthesisOptions& options) {
  const auto num_tasks =
      static_cast<TaskId>(evaluator.spec().tasks().size());
  const std::vector<std::vector<HostId>> subsets =
      internal::candidate_subsets(evaluator.arch(), evaluator.usable(),
                                  options.max_replication_per_task);

  std::vector<std::vector<HostId>> assignment(
      static_cast<std::size_t>(num_tasks));
  std::vector<std::vector<HostId>> best;
  std::size_t best_cost = SIZE_MAX;
  Status failure = Status::Ok();

  // Depth-first over tasks; prune when the partial cost plus one replica
  // per remaining task cannot beat the incumbent. A pinned task explores
  // exactly its pinned set.
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

Result<SynthesisResult> reference_greedy(Evaluator& evaluator,
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

/// The actual search; synthesize() wraps it with observability.
Result<SynthesisResult> synthesize_impl(
    const spec::Specification& spec, const arch::Architecture& arch,
    std::vector<impl::ImplementationConfig::SensorBinding> sensor_bindings,
    const SynthesisOptions& options) {
  LRT_RETURN_IF_ERROR(spec.require_cycle_safe("synthesis"));
  if (options.max_replication_per_task < 1) {
    return InvalidArgumentError("max_replication_per_task must be >= 1");
  }
  const auto num_hosts = static_cast<HostId>(arch.hosts().size());
  std::vector<HostId> usable = options.allowed_hosts;
  if (usable.empty()) {
    for (HostId h = 0; h < num_hosts; ++h) usable.push_back(h);
  } else {
    std::sort(usable.begin(), usable.end());
    usable.erase(std::unique(usable.begin(), usable.end()), usable.end());
    if (usable.front() < 0 || usable.back() >= num_hosts) {
      return InvalidArgumentError("allowed_hosts references a host outside "
                                  "the architecture");
    }
  }
  if (usable.empty()) {
    return InvalidArgumentError("synthesis needs at least one usable host");
  }
  if (options.strategy == SynthesisOptions::Strategy::kExhaustive &&
      usable.size() > static_cast<std::size_t>(kMaxExhaustiveHosts)) {
    return InvalidArgumentError(
        "exhaustive synthesis supports at most " +
        std::to_string(kMaxExhaustiveHosts) + " usable hosts (got " +
        std::to_string(usable.size()) +
        "); use the greedy strategy for larger architectures");
  }
  for (const CommId c : options.relaxed_lrcs) {
    if (c < 0 || c >= static_cast<CommId>(spec.communicators().size())) {
      return InvalidArgumentError("relaxed_lrcs references communicator " +
                                  std::to_string(c));
    }
  }
  if (!options.task_redundancy.empty() &&
      options.task_redundancy.size() != spec.tasks().size()) {
    return InvalidArgumentError(
        "task_redundancy must be empty or give one entry per task");
  }
  // Normalize the pins (engines rely on ascending, duplicate-free sets
  // that are subsets of `usable`, so the search never leaves the region
  // the schedulability tables cover).
  SynthesisOptions opts = options;
  if (!opts.pinned_hosts.empty()) {
    if (opts.pinned_hosts.size() != spec.tasks().size()) {
      return InvalidArgumentError(
          "pinned_hosts must be empty or give one (possibly empty) host "
          "set per task");
    }
    for (auto& pinned : opts.pinned_hosts) {
      std::sort(pinned.begin(), pinned.end());
      pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
      for (const HostId h : pinned) {
        if (!std::binary_search(usable.begin(), usable.end(), h)) {
          return InvalidArgumentError(
              "pinned_hosts references host " + std::to_string(h) +
              " outside the usable (allowed) host set");
        }
      }
      if (static_cast<int>(pinned.size()) > opts.max_replication_per_task) {
        return InvalidArgumentError(
            "a pinned_hosts set exceeds max_replication_per_task");
      }
    }
  }

  // The fast path precomputes its timing tables for every (task, usable
  // host) pair; an architecture with holes in its WCET/WCTT tables falls
  // back to the reference engine, which only touches the entries of
  // candidates it actually evaluates.
  const bool fast =
      opts.engine == SynthesisOptions::Engine::kFast &&
      (!opts.require_schedulable ||
       internal::timing_tables_complete(spec, arch, usable));
  if (fast) {
    switch (opts.strategy) {
      case SynthesisOptions::Strategy::kExhaustive:
        return internal::fast_exhaustive(spec, arch, sensor_bindings, usable,
                                         opts);
      case SynthesisOptions::Strategy::kGreedy:
        return internal::fast_greedy(spec, arch, sensor_bindings, usable,
                                     opts);
    }
    return InternalError("unknown synthesis strategy");
  }

  Evaluator evaluator(spec, arch, std::move(sensor_bindings),
                      std::move(usable), opts);
  switch (opts.strategy) {
    case SynthesisOptions::Strategy::kExhaustive:
      return reference_exhaustive(evaluator, opts);
    case SynthesisOptions::Strategy::kGreedy:
      return reference_greedy(evaluator, opts);
  }
  return InternalError("unknown synthesis strategy");
}

}  // namespace

Result<SynthesisResult> synthesize(
    const spec::Specification& spec, const arch::Architecture& arch,
    std::vector<impl::ImplementationConfig::SensorBinding> sensor_bindings,
    const SynthesisOptions& options) {
  obs::Sink* sink = obs::resolve_sink(options.sink);
  if (sink == nullptr) {
    return synthesize_impl(spec, arch, std::move(sensor_bindings), options);
  }
  const obs::SpanGuard span(sink, "synth", "run");
  const auto start = std::chrono::steady_clock::now();
  auto result =
      synthesize_impl(spec, arch, std::move(sensor_bindings), options);
  sink->histogram_record(
      "synth.wall_ms", std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  sink->counter_add("synth.runs");
  if (result.ok()) {
    sink->counter_add("synth.candidates", result->candidates_evaluated);
    sink->counter_add("synth.full_evals", result->full_evals);
    sink->counter_add("synth.incremental_evals",
                      result->incremental_evals);
    sink->counter_add("synth.prunes", result->subtrees_pruned);
    sink->counter_add("synth.cache_hits", result->cache_hits);
    sink->counter_add("synth.cache_misses", result->cache_misses);
    sink->counter_add("synth.incumbent_updates",
                      result->incumbent_updates);
  } else {
    sink->counter_add("synth.failures");
    if (result.status().code() == StatusCode::kUnsatisfiable)
      sink->counter_add("synth.unsat");
  }
  return result;
}

Result<std::vector<double>> max_achievable_srgs(
    const spec::Specification& spec, const arch::Architecture& arch,
    std::vector<impl::ImplementationConfig::SensorBinding> sensor_bindings) {
  if (arch.hosts().empty()) {
    return InvalidArgumentError(
        "the SRG ceiling needs at least one host to map tasks onto");
  }
  impl::ImplementationConfig config;
  config.name = "srg_ceiling";
  for (const spec::Task& task : spec.tasks()) {
    impl::ImplementationConfig::TaskMapping mapping;
    mapping.task = task.name;
    for (const arch::Host& host : arch.hosts()) {
      mapping.hosts.push_back(host.name);
    }
    config.task_mappings.push_back(std::move(mapping));
  }
  // Keep only bindings Implementation::Build would accept; the ceiling is
  // a probe, so a stray bind declaration must not abort it.
  std::set<spec::CommId> bound;
  for (auto& binding : sensor_bindings) {
    const auto comm = spec.find_communicator(binding.communicator);
    if (!comm.has_value() || !spec.is_input_communicator(*comm)) continue;
    if (!arch.find_sensor(binding.sensor).has_value()) continue;
    if (!bound.insert(*comm).second) continue;
    config.sensor_bindings.push_back(std::move(binding));
  }
  // Unbound read input communicators get the most reliable sensor: any
  // other choice only lowers the ceiling.
  const auto best_sensor = std::max_element(
      arch.sensors().begin(), arch.sensors().end(),
      [](const arch::Sensor& a, const arch::Sensor& b) {
        return a.reliability < b.reliability;
      });
  for (spec::CommId c = 0;
       c < static_cast<spec::CommId>(spec.communicators().size()); ++c) {
    if (!spec.is_input_communicator(c) || spec.readers_of(c).empty()) {
      continue;
    }
    if (bound.count(c) != 0) continue;
    if (best_sensor == arch.sensors().end()) {
      return InvalidArgumentError(
          "read input communicator '" + spec.communicator(c).name +
          "' needs a sensor but the architecture declares none");
    }
    config.sensor_bindings.push_back(
        {spec.communicator(c).name, best_sensor->name});
  }
  LRT_ASSIGN_OR_RETURN(
      impl::Implementation impl,
      impl::Implementation::Build(spec, arch, std::move(config)));
  return reliability::compute_srgs(impl);
}

}  // namespace lrt::synth
