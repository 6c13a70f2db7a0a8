// Shared helpers for constructing small systems in tests.
#ifndef LRT_TESTS_TEST_UTIL_H_
#define LRT_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arch/architecture.h"
#include "impl/implementation.h"
#include "spec/specification.h"
#include "support/rng.h"

namespace lrt::test {

/// A heap-owned (spec, arch, impl) triple with stable addresses.
struct System {
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<arch::Architecture> arch;
  std::unique_ptr<impl::Implementation> impl;
};

/// `prefix` followed by the decimal `index` ("c", 3 -> "c3"). Appended
/// piecewise: `"c" + std::to_string(i)` trips a GCC 12 -Wrestrict false
/// positive at -O3.
inline std::string indexed(std::string_view prefix, std::int64_t index) {
  std::string out(prefix);
  out += std::to_string(index);
  return out;
}

/// Shorthand for a real-typed communicator declaration.
inline spec::Communicator comm(std::string name, spec::Time period,
                               double lrc = 1.0) {
  return {std::move(name), spec::ValueType::kReal, spec::Value::real(0.0),
          period, lrc};
}

/// Shorthand for a task config reading/writing (comm, instance) pairs.
inline spec::SpecificationConfig::TaskConfig task(
    std::string name,
    std::vector<std::pair<std::string, std::int64_t>> inputs,
    std::vector<std::pair<std::string, std::int64_t>> outputs,
    spec::FailureModel model = spec::FailureModel::kSeries) {
  spec::SpecificationConfig::TaskConfig config;
  config.name = std::move(name);
  config.inputs = std::move(inputs);
  config.outputs = std::move(outputs);
  config.model = model;
  return config;
}

/// Builds a specification or aborts the test with the error message.
inline spec::Specification build_spec(spec::SpecificationConfig config) {
  auto result = spec::Specification::Build(std::move(config));
  if (!result.ok()) {
    ADD_FAILURE() << "spec build failed: " << result.status();
    std::abort();
  }
  return std::move(result).value();
}

/// One-sensor-in, chain-of-tasks specification:
///   sensor comm c0 -> task1 -> c1 -> task2 -> c2 -> ... -> cN
/// Every communicator has period `period` (tasks write instance k+1 etc.).
inline spec::SpecificationConfig chain_spec_config(int tasks,
                                                   spec::Time period = 10,
                                                   double lrc = 0.5) {
  spec::SpecificationConfig config;
  config.name = "chain";
  for (int i = 0; i <= tasks; ++i) {
    config.communicators.push_back(comm(indexed("c", i), period, lrc));
  }
  for (int i = 0; i < tasks; ++i) {
    config.tasks.push_back(task(indexed("task", i + 1), {{indexed("c", i), i}},
                                {{indexed("c", i + 1), i + 1}}));
  }
  return config;
}

/// Builds a System where every task runs on one host of reliability
/// `host_rel` (host "h0"), and every input communicator is read from a
/// sensor of reliability `sensor_rel`.
inline System single_host_system(spec::SpecificationConfig spec_config,
                                 double host_rel = 0.9,
                                 double sensor_rel = 0.95) {
  System system;
  system.spec = std::make_unique<spec::Specification>(
      build_spec(std::move(spec_config)));

  arch::ArchitectureConfig arch_config;
  arch_config.hosts.push_back({"h0", host_rel});
  impl::ImplementationConfig impl_config;
  for (const auto& task : system.spec->tasks()) {
    impl_config.task_mappings.push_back({task.name, {"h0"}});
  }
  for (spec::CommId c = 0;
       c < static_cast<spec::CommId>(system.spec->communicators().size());
       ++c) {
    if (system.spec->is_input_communicator(c) &&
        !system.spec->readers_of(c).empty()) {
      const std::string& name = system.spec->communicator(c).name;
      arch_config.sensors.push_back({"sens_" + name, sensor_rel});
      impl_config.sensor_bindings.push_back({name, "sens_" + name});
    }
  }

  auto arch_result = arch::Architecture::Build(std::move(arch_config));
  if (!arch_result.ok()) {
    ADD_FAILURE() << "arch build failed: " << arch_result.status();
    std::abort();
  }
  system.arch =
      std::make_unique<arch::Architecture>(std::move(arch_result).value());

  auto impl_result = impl::Implementation::Build(
      *system.spec, *system.arch, std::move(impl_config));
  if (!impl_result.ok()) {
    ADD_FAILURE() << "impl build failed: " << impl_result.status();
    std::abort();
  }
  system.impl =
      std::make_unique<impl::Implementation>(std::move(impl_result).value());
  return system;
}

/// A random race-free specification whose tasks may read any
/// communicator, so dataflow cycles (self-loops included) are common;
/// failure models are mixed, giving memory-free, cycle-safe cyclic and
/// unsafe cyclic specifications.
inline spec::SpecificationConfig random_cyclic_spec(Xoshiro256& rng,
                                                    int index) {
  spec::SpecificationConfig config;
  config.name = indexed("random", index);
  const int comms = 2 + static_cast<int>(rng.next_below(9));
  const int tasks = 1 + static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(comms)));
  for (int c = 0; c < comms; ++c) {
    config.communicators.push_back(comm(indexed("c", c), 10, 0.5));
  }
  // Task k writes c_k and, sometimes, one of the unwritten tail comms.
  int next_extra = tasks;
  for (int k = 0; k < tasks; ++k) {
    std::vector<std::pair<std::string, std::int64_t>> outputs = {
        {indexed("c", k), 1}};
    if (next_extra < comms && rng.bernoulli(0.3)) {
      outputs.push_back({indexed("c", next_extra++), 1});
    }
    std::vector<std::pair<std::string, std::int64_t>> inputs;
    const int fan_in = 1 + static_cast<int>(rng.next_below(3));
    for (int j = 0; j < fan_in; ++j) {
      inputs.push_back({indexed("c", static_cast<std::int64_t>(rng.next_below(
                                          static_cast<std::uint64_t>(comms)))),
                        0});
    }
    // Independent-model tasks cut cycles; weight them so cyclic specs
    // split between cycle-safe and unsafe.
    const double draw = rng.next_double();
    const spec::FailureModel model =
        draw < 0.6 ? spec::FailureModel::kIndependent
                   : (draw < 0.8 ? spec::FailureModel::kSeries
                                 : spec::FailureModel::kParallel);
    config.tasks.push_back(
        task(indexed("t", k), std::move(inputs), std::move(outputs), model));
  }
  return config;
}

}  // namespace lrt::test

#endif  // LRT_TESTS_TEST_UTIL_H_
