// Scaling: runtime of the joint analyses as the specification grows.
// SRG induction is linear in the dataflow size; EDF schedulability is
// O(n log n) per host in the number of jobs; refinement checking is linear
// in |kappa|. These benchmarks back the "incremental analysis" motivation:
// full re-analysis cost grows with the system, while the incremental SRG
// evaluator re-propagates only the dirty downstream cone of a mutation.
// `--json <path>` writes a machine-readable summary (BENCH_analysis.json):
// the cold analyze cost and incremental-vs-full re-evaluation, gated in
// CI by bench/check_bench_baseline.py.
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "reliability/analysis.h"
#include "reliability/incremental.h"
#include "sched/schedulability.h"
#include "spec/spec_graph.h"

namespace {

using namespace lrt;

struct ChainSystem {
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<arch::Architecture> arch;
  std::unique_ptr<impl::Implementation> impl;
};

/// `n` parallel two-task pipelines across three hosts.
ChainSystem pipelines(int n) {
  ChainSystem system;
  spec::SpecificationConfig config;
  config.name = "pipelines";
  impl::ImplementationConfig impl_config;
  arch::ArchitectureConfig arch_config;
  arch_config.hosts = {{"h1", 0.999}, {"h2", 0.999}, {"h3", 0.999}};
  arch_config.default_wcet = 1;
  arch_config.default_wctt = 1;
  const std::int64_t period = 8 * n;  // room for all jobs per host

  for (int i = 0; i < n; ++i) {
    const std::string suffix = std::to_string(i);
    config.communicators.push_back({"in" + suffix, spec::ValueType::kReal,
                                    spec::Value::real(0.0), period, 0.5});
    config.communicators.push_back({"mid" + suffix, spec::ValueType::kReal,
                                    spec::Value::real(0.0), period / 2, 0.5});
    config.communicators.push_back({"out" + suffix, spec::ValueType::kReal,
                                    spec::Value::real(0.0), period, 0.5});
    spec::SpecificationConfig::TaskConfig front;
    front.name = "front" + suffix;
    front.inputs = {{"in" + suffix, 0}};
    front.outputs = {{"mid" + suffix, 1}};
    spec::SpecificationConfig::TaskConfig back;
    back.name = "back" + suffix;
    back.inputs = {{"mid" + suffix, 1}};
    back.outputs = {{"out" + suffix, 1}};
    config.tasks.push_back(std::move(front));
    config.tasks.push_back(std::move(back));
    impl_config.task_mappings.push_back(
        {"front" + suffix, {i % 2 == 0 ? "h1" : "h2"}});
    impl_config.task_mappings.push_back({"back" + suffix, {"h3"}});
    arch_config.sensors.push_back({"sens" + suffix, 0.999});
    impl_config.sensor_bindings.push_back({"in" + suffix, "sens" + suffix});
  }
  system.spec = std::make_unique<spec::Specification>(
      std::move(spec::Specification::Build(std::move(config))).value());
  system.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  system.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*system.spec, *system.arch,
                                            std::move(impl_config)))
          .value());
  return system;
}

void print_table() {
  bench::header("Scaling", "analysis cost vs specification size");
  std::printf("benchmarks below: reliability / schedulability / graph "
              "analysis on n parallel pipelines (2n tasks, 3n "
              "communicators), plus incremental vs from-scratch SRG "
              "re-evaluation after a single-task mutation.\n");
}

/// Best of `rounds` timings of `body`, in milliseconds: the minimum is
/// the figure least disturbed by a noisy runner.
template <typename Body>
double best_ms(int rounds, Body&& body) {
  double best = 0.0;
  for (int r = 0; r < rounds; ++r) {
    const auto start = std::chrono::steady_clock::now();
    if (!body()) return -1.0;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// On an n-pipeline system, times a cold reliability::analyze and
/// `mutations` single-task host-set flips, incrementally (dirty-cone
/// propagation) and from scratch (rebuild + analyze), writing the
/// comparison and the runner's core count to `path`.
bool write_json(const std::string& path) {
  constexpr int kPipelines = 100;
  constexpr int kMutations = 200;
  constexpr int kRounds = 5;
  constexpr int kAnalyzes = 200;
  auto system = pipelines(kPipelines);
  auto eval = reliability::SrgEvaluator::FromImplementation(*system.impl);
  if (!eval.ok()) return false;

  // The mutation cycles task t between {h1} and {h1, h2}, with the
  // parity flipped every round — a real change each time, so the dirty
  // cone is never empty.
  const auto num_tasks =
      static_cast<spec::TaskId>(system.spec->tasks().size());
  const std::vector<arch::HostId> narrow = {0};
  const std::vector<arch::HostId> wide = {0, 1};

  int round = 0;
  std::int64_t comm_updates = 0;  // of the first round (deterministic)
  const double inc_ms =
      best_ms(kRounds, [&] {
        for (int i = 0; i < kMutations; ++i) {
          const auto t = static_cast<spec::TaskId>(i % num_tasks);
          eval->set_task_hosts(t, (i + round) % 2 == 0 ? wide : narrow);
        }
        eval->discard_trail();
        if (round++ == 0) comm_updates = eval->comm_updates();
        return true;
      }) /
      kMutations;

  impl::ImplementationConfig config = system.impl->to_config();
  const double full_ms =
      best_ms(kRounds, [&] {
        for (int i = 0; i < kMutations; ++i) {
          const auto t = static_cast<std::size_t>(i % num_tasks);
          config.task_mappings[t].hosts =
              i % 2 == 0 ? std::vector<std::string>{"h1", "h2"}
                         : std::vector<std::string>{"h1"};
          auto impl = impl::Implementation::Build(*system.spec, *system.arch,
                                                  config);
          if (!impl.ok()) return false;
          auto report = reliability::analyze(*impl);
          if (!report.ok()) return false;
          benchmark::DoNotOptimize(report);
        }
        return true;
      }) /
      kMutations;

  const double analyze_ms =
      best_ms(kRounds, [&] {
        for (int i = 0; i < kAnalyzes; ++i) {
          auto report = reliability::analyze(*system.impl);
          if (!report.ok()) return false;
          benchmark::DoNotOptimize(report);
        }
        return true;
      }) /
      kAnalyzes;
  if (inc_ms < 0 || full_ms < 0 || analyze_ms < 0) return false;

  bench::JsonWriter json;
  json.text("benchmark", "analysis_srg_100_pipelines");
  json.integer("hardware_concurrency",
               static_cast<long long>(std::thread::hardware_concurrency()));
  json.integer("tasks", static_cast<long long>(num_tasks));
  json.integer("communicators",
               static_cast<long long>(system.spec->communicators().size()));
  json.integer("mutations", kMutations);
  json.number("analyze_us", analyze_ms * 1000.0);
  json.number("incremental_ms_per_mutation", inc_ms);
  json.number("full_rebuild_ms_per_mutation", full_ms);
  json.number("speedup", full_ms / (inc_ms > 0 ? inc_ms : 1));
  json.integer("incremental_comm_updates", comm_updates);
  return json.write(path);
}

void BM_ReliabilityAnalysis(benchmark::State& state) {
  auto system = pipelines(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto report = reliability::analyze(*system.impl);
    benchmark::DoNotOptimize(report);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ReliabilityAnalysis)->Arg(10)->Arg(100)->Arg(500)->Complexity();

void BM_Schedulability(benchmark::State& state) {
  auto system = pipelines(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto report = sched::analyze_schedulability(*system.impl);
    benchmark::DoNotOptimize(report);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Schedulability)->Arg(10)->Arg(100)->Arg(500)->Complexity();

void BM_GraphConstruction(benchmark::State& state) {
  auto system = pipelines(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    spec::SpecificationGraph graph(*system.spec);
    benchmark::DoNotOptimize(graph.is_memory_free());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GraphConstruction)->Arg(10)->Arg(100)->Arg(500)->Complexity();

void BM_IncrementalSrgMutation(benchmark::State& state) {
  auto system = pipelines(static_cast<int>(state.range(0)));
  auto eval = reliability::SrgEvaluator::FromImplementation(*system.impl);
  const std::vector<arch::HostId> narrow = {0};
  const std::vector<arch::HostId> wide = {0, 1};
  std::int64_t i = 0;
  for (auto _ : state) {
    eval->set_task_hosts(
        static_cast<spec::TaskId>(
            i % static_cast<std::int64_t>(system.spec->tasks().size())),
        i % 2 == 0 ? wide : narrow);
    ++i;
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IncrementalSrgMutation)
    ->Arg(10)
    ->Arg(100)
    ->Arg(500)
    ->Complexity();

}  // namespace

LRT_BENCH_MAIN_JSON(print_table, write_json)
