#include "synth/synthesis.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "reliability/analysis.h"
#include "synth/fast_engine.h"

namespace lrt::synth {
namespace {

using arch::HostId;
using spec::CommId;
using spec::TaskId;

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
  // Normalize the pins (the search relies on ascending, duplicate-free
  // sets that are subsets of `usable`, so it never leaves the region the
  // schedulability tables cover).
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

  switch (opts.strategy) {
    case SynthesisOptions::Strategy::kExhaustive:
      return internal::fast_exhaustive(spec, arch, sensor_bindings, usable,
                                       opts);
    case SynthesisOptions::Strategy::kGreedy:
      return internal::fast_greedy(spec, arch, sensor_bindings, usable, opts);
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
