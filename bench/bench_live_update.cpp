// Live-update transaction cost: how much does it cost to verify and
// hot-swap a running workload, and how much does the refinement fast
// path save over pinned re-synthesis?
//
// The workload is the 3TS case study; the update splices a `filter1`
// task into the tank-1 control path (new communicator f1, t1 retimed).
// Three questions, all deterministic:
//   * verify latency: wall time of UpdateEngine::propose on the
//     refinement fast path (same task set, LRCs lowered — zero search)
//     vs the re-synthesis slow path (task set changed, clean region
//     pinned), plus the search effort counter of the latter;
//   * install latency in INSTANTS: the lag from propose to the swap
//     actually landing at an eligible hyper-period boundary;
//   * replay identity: the whole transaction replayed from scratch must
//     stay bit-identical (spec_swaps included); identity against the
//     every-tick oracle is the differential suite's job.
//
// `--json <path>` writes the machine-readable summary gated in CI
// against baselines/BENCH_update.json.
//
// Benchmarks: propose() on both verify paths, the full updated run.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adapt/live_update.h"
#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "sim/runtime.h"

namespace {

using namespace lrt;

constexpr spec::Time kHyper = 500;
constexpr std::int64_t kPeriods = 20;
constexpr spec::Time kEarliestInstall = 2 * kHyper;

/// The 3TS timing skeleton (paper Fig. 2), optionally with the spliced
/// tank-1 filter. Functionless tasks: this bench times the transaction
/// machinery, not the control law.
spec::SpecificationConfig make_spec(bool with_filter,
                                    double lrc_controls = 0.97) {
  spec::SpecificationConfig config;
  config.name = with_filter ? "three_tank_filtered" : "three_tank";
  const auto comm = [&config](const std::string& name, spec::Time period,
                              double lrc) {
    config.communicators.push_back(
        {name, spec::ValueType::kReal, spec::Value::real(0.0), period, lrc});
  };
  comm("s1", 500, 0.99);
  comm("s2", 500, 0.99);
  comm("l1", 100, 0.97);
  comm("l2", 100, 0.97);
  comm("u1", 100, lrc_controls);
  comm("u2", 100, lrc_controls);
  comm("r1", 500, 0.9);
  comm("r2", 500, 0.9);
  if (with_filter) comm("f1", 100, 0.97);

  const auto task =
      [&config](const std::string& name,
                std::vector<std::pair<std::string, std::int64_t>> inputs,
                std::vector<std::pair<std::string, std::int64_t>> outputs,
                spec::FailureModel model) {
        spec::SpecificationConfig::TaskConfig task_config;
        task_config.name = name;
        task_config.inputs = std::move(inputs);
        task_config.outputs = std::move(outputs);
        task_config.model = model;
        config.tasks.push_back(std::move(task_config));
      };
  task("read1", {{"s1", 0}}, {{"l1", 1}}, spec::FailureModel::kParallel);
  task("read2", {{"s2", 0}}, {{"l2", 1}}, spec::FailureModel::kParallel);
  if (with_filter) {
    task("filter1", {{"l1", 1}}, {{"f1", 2}}, spec::FailureModel::kSeries);
  }
  task("t1", {with_filter ? std::pair<std::string, std::int64_t>{"f1", 2}
                          : std::pair<std::string, std::int64_t>{"l1", 1}},
       {{"u1", 3}}, spec::FailureModel::kSeries);
  task("t2", {{"l2", 1}}, {{"u2", 3}}, spec::FailureModel::kSeries);
  task("estimate1", {{"l1", 1}, {"u1", 0}}, {{"r1", 1}},
       spec::FailureModel::kSeries);
  task("estimate2", {{"l2", 1}, {"u2", 0}}, {{"r2", 1}},
       spec::FailureModel::kSeries);
  return config;
}

struct System {
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<arch::Architecture> arch;
  std::unique_ptr<impl::Implementation> impl;
};

System running_system() {
  arch::ArchitectureConfig arch_config;
  arch_config.name = "three_tank_arch";
  for (const std::string name : {"h1", "h2", "h3"}) {
    arch_config.hosts.push_back({name, 0.99});
  }
  for (const std::string name : {"sensor1", "sensor2"}) {
    arch_config.sensors.push_back({name, 0.99});
  }
  arch_config.default_wcet = 10;
  arch_config.default_wctt = 5;

  impl::ImplementationConfig impl_config;
  impl_config.name = "three_tank_impl";
  impl_config.task_mappings.push_back({"t1", {"h1"}});
  impl_config.task_mappings.push_back({"t2", {"h2"}});
  for (const std::string task :
       {"read1", "read2", "estimate1", "estimate2"}) {
    impl_config.task_mappings.push_back({task, {"h3"}});
  }
  impl_config.sensor_bindings = {{"s1", "sensor1"}, {"s2", "sensor2"}};

  System system;
  system.spec = std::make_unique<spec::Specification>(
      std::move(spec::Specification::Build(make_spec(false))).value());
  system.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  system.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*system.spec, *system.arch,
                                            std::move(impl_config)))
          .value());
  return system;
}

adapt::LiveUpdateOptions policy(obs::Sink* sink) {
  adapt::LiveUpdateOptions options;
  options.probation_periods = 3;
  options.earliest_install = kEarliestInstall;
  options.sink = sink;
  return options;
}

struct ProposeCost {
  double wall_ms = 0.0;
  std::int64_t synth_candidates = 0;
  adapt::UpdatePath path = adapt::UpdatePath::kNone;
  bool staged = false;
};

/// Times one propose() in isolation: `with_filter` selects the slow
/// (re-synthesis) path, a lowered-LRC same-shape spec the fast one.
ProposeCost time_propose(const System& system, bool with_filter) {
  obs::MetricsRegistry metrics;
  obs::Sink sink(&metrics, nullptr);
  adapt::UpdateEngine engine(*system.impl, policy(&sink));
  const auto spec_config = with_filter
                               ? make_spec(true)
                               : make_spec(false, /*lrc_controls=*/0.9);
  const auto start = std::chrono::steady_clock::now();
  const Status status = engine.propose(0, spec_config);
  const auto stop = std::chrono::steady_clock::now();
  if (!status.ok()) {
    std::fprintf(stderr, "propose failed: %s\n",
                 status.to_string().c_str());
    std::abort();
  }
  ProposeCost cost;
  cost.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  cost.synth_candidates = metrics.snapshot().counter("synth.candidates");
  cost.path = engine.report().path;
  cost.staged = engine.state() == adapt::UpdateState::kStaged;
  return cost;
}

struct TransactionRun {
  sim::SimulationResult result;
  adapt::UpdateReport report;
  double wall_ms = 0.0;
};

TransactionRun run_transaction(const System& system) {
  adapt::UpdateEngine update_engine(*system.impl, policy(nullptr));
  if (const Status status = update_engine.propose(0, make_spec(true));
      !status.ok()) {
    std::fprintf(stderr, "propose failed: %s\n",
                 status.to_string().c_str());
    std::abort();
  }
  sim::SimulationOptions options;
  options.periods = kPeriods;
  options.faults.inject_invocation_faults = false;
  options.faults.inject_sensor_faults = false;
  options.actuator_comms = {"u1", "u2"};
  options.record_values_for = {"u1", "u2"};
  options.monitor = &update_engine;
  sim::NullEnvironment env;
  const auto start = std::chrono::steady_clock::now();
  auto result = sim::simulate(*system.impl, env, options);
  const auto stop = std::chrono::steady_clock::now();
  if (!result.ok()) {
    std::fprintf(stderr, "simulate failed: %s\n",
                 result.status().to_string().c_str());
    std::abort();
  }
  TransactionRun run;
  run.result = std::move(result).value();
  run.report = update_engine.report();
  run.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return run;
}

struct Summary {
  ProposeCost refine;
  ProposeCost resynth;
  TransactionRun run;
  TransactionRun replay;
  bool identical = false;
  spec::Time install_latency = 0;
};

Summary measure() {
  const System system = running_system();
  Summary summary;
  summary.refine = time_propose(system, /*with_filter=*/false);
  summary.resynth = time_propose(system, /*with_filter=*/true);
  summary.run = run_transaction(system);
  summary.replay = run_transaction(system);
  summary.identical = sim::to_json(summary.run.result) ==
                          sim::to_json(summary.replay.result) &&
                      summary.run.report.installed_at ==
                          summary.replay.report.installed_at;
  summary.install_latency =
      summary.run.report.installed_at - summary.run.report.proposed_at;
  return summary;
}

void print_table() {
  bench::header("live update",
                "transactional hot-swap: verify latency + install lag");
  const Summary s = measure();
  std::printf("%-22s %-10s %-12s %-18s\n", "verify path", "staged",
              "wall ms", "synth candidates");
  std::printf("%-22s %-10s %-12.3f %-18lld\n", "refined (fast)",
              s.refine.staged ? "yes" : "NO", s.refine.wall_ms,
              static_cast<long long>(s.refine.synth_candidates));
  std::printf("%-22s %-10s %-12.3f %-18lld\n", "resynthesized (slow)",
              s.resynth.staged ? "yes" : "NO", s.resynth.wall_ms,
              static_cast<long long>(s.resynth.synth_candidates));
  std::printf("\ninstall latency: %lld instants (proposed@%lld, "
              "installed@%lld, earliest %lld)\n",
              static_cast<long long>(s.install_latency),
              static_cast<long long>(s.run.report.proposed_at),
              static_cast<long long>(s.run.report.installed_at),
              static_cast<long long>(kEarliestInstall));
  std::printf("transaction: %s after %lld spec swap(s); run %.2f ms, "
              "replay %.2f ms, results %s\n",
              to_string(s.run.report.state).data(),
              static_cast<long long>(s.run.result.spec_swaps),
              s.run.wall_ms, s.replay.wall_ms,
              s.identical ? "identical" : "DIVERGED");
}

bool write_json(const std::string& path) {
  const Summary s = measure();
  bench::JsonWriter json;
  json.text("benchmark", "update_live_swap");
  json.integer("periods", kPeriods);
  json.integer("identical", s.identical ? 1 : 0);
  json.integer("committed",
               s.run.report.state == adapt::UpdateState::kCommitted ? 1
                                                                    : 0);
  json.integer("spec_swaps", s.run.result.spec_swaps);
  json.integer("install_latency_instants", s.install_latency);
  json.integer("resynth_candidates", s.resynth.synth_candidates);
  json.number("refine_wall_ms", s.refine.wall_ms);
  json.number("resynth_wall_ms", s.resynth.wall_ms);
  json.number("run_wall_ms", s.run.wall_ms);
  return json.write(path);
}

void BM_ProposeRefine(benchmark::State& state) {
  const System system = running_system();
  for (auto _ : state) {
    adapt::UpdateEngine engine(*system.impl, policy(nullptr));
    auto status = engine.propose(0, make_spec(false, 0.9));
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_ProposeRefine)->Unit(benchmark::kMillisecond);

void BM_ProposeResynth(benchmark::State& state) {
  const System system = running_system();
  for (auto _ : state) {
    adapt::UpdateEngine engine(*system.impl, policy(nullptr));
    auto status = engine.propose(0, make_spec(true));
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_ProposeResynth)->Unit(benchmark::kMillisecond);

void BM_UpdatedRun(benchmark::State& state) {
  const System system = running_system();
  for (auto _ : state) {
    auto run = run_transaction(system);
    benchmark::DoNotOptimize(run);
  }
}
BENCHMARK(BM_UpdatedRun)->Unit(benchmark::kMillisecond);

}  // namespace

LRT_BENCH_MAIN_JSON(print_table, write_json)
