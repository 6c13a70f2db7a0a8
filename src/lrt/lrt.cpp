#include "lrt/lrt.h"

#include <cassert>
#include <utility>

#include "arch/arch_json.h"
#include "spec/spec_json.h"
#include "support/hash.h"

namespace lrt {
namespace {

/// The facade's one piece of added logic: the subject must have been
/// built against this workload's models, or every downstream reference
/// the Implementation holds is dangling-in-waiting.
Status check_membership(const Workload& workload,
                        const impl::Implementation& implementation) {
  if (workload.spec == nullptr || workload.arch == nullptr) {
    return InvalidArgumentError(
        "workload is empty: build_workload/borrow_workload it first");
  }
  // A lifetime/membership violation, not a malformed argument: the
  // implementation is valid, just built against other models — so it maps
  // to kFailedPrecondition on the wire (DESIGN.md §5k status audit).
  if (&implementation.specification() != workload.spec.get() ||
      &implementation.architecture() != workload.arch.get()) {
    return FailedPreconditionError(
        "implementation was not built against this workload's "
        "specification/architecture");
  }
  return Status::Ok();
}

Status check_models(const Workload& workload) {
  if (workload.spec == nullptr || workload.arch == nullptr) {
    return InvalidArgumentError(
        "workload is empty: build_workload/borrow_workload it first");
  }
  return Status::Ok();
}

}  // namespace

std::uint64_t Workload::fingerprint() const {
  assert(spec != nullptr && arch != nullptr &&
         "fingerprint() requires a non-empty workload");
  return lrt::fingerprint(spec->to_config(), arch->to_config());
}

namespace {

/// hash_bytes(to_json(config), seed), hashed as the writer emits it
/// rather than over a materialized copy of the document.
template <typename Config>
std::uint64_t hash_canonical(const Config& config, std::uint64_t seed) {
  struct HashSink final : JsonSink {
    void write(std::string_view chunk) override { fnv.update(chunk); }
    Fnv1a fnv;
  } sink;
  JsonWriter json(sink);
  write_json(config, json);
  json.flush();
  return sink.fnv.finish(seed);
}

}  // namespace

std::uint64_t fingerprint(const spec::SpecificationConfig& spec_config,
                          const arch::ArchitectureConfig& arch_config) {
  return hash_canonical(arch_config, hash_canonical(spec_config, 0));
}

Result<Workload> build_workload(spec::SpecificationConfig spec_config,
                                arch::ArchitectureConfig arch_config) {
  LRT_ASSIGN_OR_RETURN(spec::Specification spec,
                       spec::Specification::Build(std::move(spec_config)));
  LRT_ASSIGN_OR_RETURN(arch::Architecture arch,
                       arch::Architecture::Build(std::move(arch_config)));
  Workload workload;
  workload.spec =
      std::make_shared<const spec::Specification>(std::move(spec));
  workload.arch = std::make_shared<const arch::Architecture>(std::move(arch));
  return workload;
}

Workload borrow_workload(const spec::Specification& spec,
                         const arch::Architecture& arch) {
  Workload workload;
  workload.spec = std::shared_ptr<const spec::Specification>(
      &spec, [](const spec::Specification*) {});
  workload.arch = std::shared_ptr<const arch::Architecture>(
      &arch, [](const arch::Architecture*) {});
  return workload;
}

Result<impl::Implementation> build_implementation(
    const Workload& workload, impl::ImplementationConfig config) {
  LRT_RETURN_IF_ERROR(check_models(workload));
  return impl::Implementation::Build(*workload.spec, *workload.arch,
                                     std::move(config));
}

Result<reliability::ReliabilityReport> analyze(
    const Workload& workload, const impl::Implementation& implementation) {
  LRT_RETURN_IF_ERROR(check_membership(workload, implementation));
  return reliability::analyze(implementation);
}

Result<sim::SimulationResult> simulate(
    const Workload& workload, const impl::Implementation& implementation,
    const SimulateOptions& options) {
  LRT_RETURN_IF_ERROR(check_membership(workload, implementation));
  if (options.environment != nullptr) {
    return sim::simulate(implementation, *options.environment,
                         options.simulation);
  }
  sim::NullEnvironment env;
  return sim::simulate(implementation, env, options.simulation);
}

Result<sim::ValidationReport> validate(
    const Workload& workload, const impl::Implementation& implementation,
    const sim::MonteCarloOptions& options) {
  LRT_RETURN_IF_ERROR(check_membership(workload, implementation));
  const sim::MonteCarloRunner runner(options);
  return runner.run(implementation);
}

Result<synth::SynthesisResult> synthesize(
    const Workload& workload,
    std::vector<impl::ImplementationConfig::SensorBinding> sensor_bindings,
    const synth::SynthesisOptions& options) {
  LRT_RETURN_IF_ERROR(check_models(workload));
  return synth::synthesize(*workload.spec, *workload.arch,
                           std::move(sensor_bindings), options);
}

Result<adapt::UpdateReport> update(const Workload& workload,
                                   const impl::Implementation& implementation,
                                   spec::SpecificationConfig proposed,
                                   const UpdateOptions& options) {
  LRT_RETURN_IF_ERROR(check_membership(workload, implementation));
  if (options.run.simulation.monitor != nullptr) {
    return InvalidArgumentError(
        "lrt::update installs its own RuntimeMonitor; "
        "options.run.simulation.monitor must be null");
  }
  adapt::UpdateEngine engine(implementation, options.update);
  LRT_RETURN_IF_ERROR(
      engine.propose(0, std::move(proposed), options.sensor_bindings));
  sim::SimulationOptions sim_options = options.run.simulation;
  sim_options.monitor = &engine;
  Result<sim::SimulationResult> run = [&] {
    if (options.run.environment != nullptr) {
      return sim::simulate(implementation, *options.run.environment,
                           sim_options);
    }
    sim::NullEnvironment env;
    return sim::simulate(implementation, env, sim_options);
  }();
  LRT_RETURN_IF_ERROR(run.status());
  return engine.report();
}

Result<lint::LintResult> check(std::string_view source,
                               const lint::LintOptions& options) {
  return lint::lint_source(source, options);
}

}  // namespace lrt
