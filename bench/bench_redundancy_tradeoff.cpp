// Ablation: space redundancy (replication, the paper's mechanism) vs time
// redundancy (re-execution, the related-work mechanism of Izosimov et
// al.). Both lift the task reliability 1 - (1-p)^n with n = replicas or
// attempts — but they pay differently: replication consumes *hosts* (and
// broadcast/voting bandwidth), re-execution consumes *processor
// utilization inside the LET*. The table shows, per target task
// reliability, the minimal n for hosts at p = 0.9, the per-host utilization
// of each strategy, and the empirical rate of both (they must agree).
//
// Benchmarks: simulation cost of replication vs re-execution.
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "reliability/analysis.h"
#include "sched/schedulability.h"
#include "sim/runtime.h"
#include "spec/specification.h"
#include "support/rng.h"

namespace {

using namespace lrt;

struct Sys {
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<arch::Architecture> arch;
  std::unique_ptr<impl::Implementation> impl;
};

/// One sensor->task->out chain; `replicas` hosts, `retries` re-executions
/// per replica, and optional checkpointing. Period 100, wcet 10.
Sys redundant(int replicas, int retries, double host_rel = 0.9,
              int checkpoints = 0) {
  Sys sys;
  spec::SpecificationConfig config;
  config.name = "redundant";
  config.communicators = {{"in", spec::ValueType::kReal,
                           spec::Value::real(0.0), 100, 0.5},
                          {"out", spec::ValueType::kReal,
                           spec::Value::real(0.0), 100, 0.5}};
  spec::SpecificationConfig::TaskConfig task;
  task.name = "t";
  task.inputs = {{"in", 0}};
  task.outputs = {{"out", 1}};
  config.tasks = {task};
  sys.spec = std::make_unique<spec::Specification>(
      std::move(spec::Specification::Build(std::move(config))).value());

  arch::ArchitectureConfig arch_config;
  std::vector<std::string> hosts;
  for (int h = 0; h < replicas; ++h) {
    // Appended piecewise: "h" + std::to_string(h) trips a GCC 12
    // -Wrestrict false positive at -O3.
    std::string host = "h";
    host += std::to_string(h);
    arch_config.hosts.push_back({host, host_rel});
    hosts.push_back(std::move(host));
  }
  arch_config.sensors = {{"s", 1.0}};
  arch_config.default_wcet = 10;
  arch_config.default_wctt = 2;
  sys.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  impl::ImplementationConfig impl_config;
  impl::ImplementationConfig::TaskMapping mapping;
  mapping.task = "t";
  mapping.hosts = hosts;
  mapping.reexecutions = retries;
  mapping.checkpoints = checkpoints;
  mapping.checkpoint_overhead = checkpoints > 0 ? 1 : 0;
  impl_config.task_mappings = {mapping};
  impl_config.sensor_bindings = {{"in", "s"}};
  sys.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*sys.spec, *sys.arch,
                                            std::move(impl_config)))
          .value());
  return sys;
}

void print_table() {
  bench::header("Ablation",
                "space (replication) vs time (re-execution) redundancy, "
                "hosts at p = 0.9");
  std::printf("%-10s %-4s %-14s %-12s %-14s %-14s\n", "target", "n",
              "strategy", "lambda_t", "util/host", "empirical");

  sim::NullEnvironment env;
  sim::SimulationOptions options;
  options.periods = 100'000;
  options.faults.seed = kDefaultRngSeed;

  for (const double target : {0.99, 0.999, 0.9999}) {
    const int n = static_cast<int>(
        std::ceil(std::log(1.0 - target) / std::log(0.1) - 1e-9));
    // Space: n replicas, no retries.
    {
      Sys sys = redundant(n, 0);
      const double lambda = reliability::task_reliability(*sys.impl, 0);
      const auto sched = sched::analyze_schedulability(*sys.impl);
      const double util =
          static_cast<double>(sched->jobs[0].wcet) / 100.0;
      const auto run = sim::simulate(*sys.impl, env, options);
      std::printf("%-10.4f %-4d %-14s %-12.6f %-14.2f %-14.6f\n", target, n,
                  "space", lambda, util, run->find("out")->update_rate());
    }
    // Time: 1 host, n-1 retries.
    {
      Sys sys = redundant(1, n - 1);
      const double lambda = reliability::task_reliability(*sys.impl, 0);
      const auto sched = sched::analyze_schedulability(*sys.impl);
      const double util =
          static_cast<double>(sched->jobs[0].wcet) / 100.0;
      const auto run = sim::simulate(*sys.impl, env, options);
      std::printf("%-10.4f %-4d %-14s %-12.6f %-14.2f %-14.6f\n", target, n,
                  "time", lambda, util, run->find("out")->update_rate());
    }
    // Time + checkpointing: 4 checkpoints (segment 2, overhead 1) shrink
    // the reserved recovery budget per retry.
    if (n > 1) {
      Sys sys = redundant(1, n - 1, 0.9, /*checkpoints=*/4);
      const double lambda = reliability::task_reliability(*sys.impl, 0);
      const auto sched = sched::analyze_schedulability(*sys.impl);
      const double util =
          static_cast<double>(sched->jobs[0].wcet) / 100.0;
      const auto run = sim::simulate(*sys.impl, env, options);
      std::printf("%-10.4f %-4d %-14s %-12.6f %-14.2f %-14.6f\n", target, n,
                  "time+ckpt", lambda, util,
                  run->find("out")->update_rate());
    }
  }
  std::printf("\nshape: identical lambda_t for equal n; space redundancy "
              "keeps per-host utilization flat (but needs n hosts and "
              "voting), time redundancy multiplies utilization by n on one "
              "host. Re-execution cannot mask a permanently failed host.\n");
}

void BM_SpaceRedundancy(benchmark::State& state) {
  Sys sys = redundant(static_cast<int>(state.range(0)), 0);
  sim::NullEnvironment env;
  for (auto _ : state) {
    sim::SimulationOptions options;
    options.periods = 5000;
    auto result = sim::simulate(*sys.impl, env, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SpaceRedundancy)->Arg(1)->Arg(2)->Arg(4);

void BM_TimeRedundancy(benchmark::State& state) {
  Sys sys = redundant(1, static_cast<int>(state.range(0)) - 1);
  sim::NullEnvironment env;
  for (auto _ : state) {
    sim::SimulationOptions options;
    options.periods = 5000;
    auto result = sim::simulate(*sys.impl, env, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TimeRedundancy)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

LRT_BENCH_MAIN(print_table)
