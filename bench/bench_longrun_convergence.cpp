// E6 (paper Prop. 1): the strong-law-of-large-numbers argument. The
// probability-1 claim "limavg of the reliability-abstract trace >= mu_c"
// is backed by the empirical limit average converging to the analytical
// SRG as the trace grows. This bench sweeps trace lengths on the 3TS
// system through the parallel MonteCarloRunner — pooling independent
// trials per decade — and reports |empirical - analytic| plus the Wilson
// interval width for u1, followed by the engine's parallel scaling
// (trials/sec and speedup vs 1 thread).
//
// Long horizons are where the simulation loop's cost shows, so the bench
// also races sim::simulate (the activation-table loop) against the
// every-grid-tick oracle of tests/sim_tick_oracle.h on two workloads and
// checks their report bytes are identical on each:
//  * sparse — coprime periods 999/1000 force a unit grid step, so ~999
//    of every 1000 ticks are idle: the regime skipping idle instants
//    exists for (horizon/core-second plus events/second);
//  * dense — the paper's 3TS closed loop on its ODE plant, where every
//    grid tick is active and the plant advances once per tick on both,
//    so nothing can be skipped and the per-instant body cost decides.
// `--json <path>` writes the machine-readable summary gated in CI
// against baselines/BENCH_longrun.json.
//
// Benchmarks: Monte Carlo throughput by thread count, raw single-run
// simulation throughput (dense and sparse).
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "plant/three_tank_system.h"
#include "reliability/analysis.h"
#include "sim/monte_carlo.h"
#include "sim/runtime.h"
#include "support/math_util.h"
#include "support/rng.h"
#include "tests/sim_tick_oracle.h"

namespace {

using namespace lrt;

sim::MonteCarloOptions mc_options(std::int64_t trials, std::int64_t periods,
                                  unsigned threads) {
  sim::MonteCarloOptions options;
  options.trials = trials;
  options.simulation.periods = periods;
  options.simulation.actuator_comms = {"u1", "u2"};
  options.seed = kDefaultRngSeed;
  options.threads = threads;
  return options;
}

/// The harmonic grid step, derived ONCE per workload from the
/// communicator periods — and cross-checked against the step the
/// specification itself cached at Build time, so the bench's
/// horizon/core-second arithmetic can never drift from the grid the
/// simulator actually runs on.
spec::Time harmonic_step(const spec::Specification& specification) {
  std::vector<std::int64_t> periods;
  periods.reserve(specification.communicators().size());
  for (const auto& comm : specification.communicators()) {
    periods.push_back(comm.period);
  }
  const spec::Time step = gcd_all(periods);
  if (step != specification.base_period()) {
    std::fprintf(stderr,
                 "grid mismatch: gcd(periods) = %lld but spec caches %lld\n",
                 static_cast<long long>(step),
                 static_cast<long long>(specification.base_period()));
    std::abort();
  }
  return step;
}

// --- loop vs every-tick oracle on a sparse workload ---

struct SparseSystem {
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<arch::Architecture> arch;
  std::unique_ptr<impl::Implementation> impl;
};

/// Coprime periods 999 and 1000: grid step 1, hyperperiod 999000, but
/// only ~2000 activation instants per period — the regime skipping idle
/// instants exists for.
SparseSystem make_sparse_system() {
  spec::SpecificationConfig config;
  config.name = "sparse_des";
  config.communicators.push_back(
      {"c0a", spec::ValueType::kReal, spec::Value::real(0.0), 999, 0.5});
  config.communicators.push_back(
      {"c0b", spec::ValueType::kReal, spec::Value::real(0.0), 1000, 0.5});
  spec::SpecificationConfig::TaskConfig task;
  task.name = "task0";
  task.inputs = {{"c0a", 1}};
  task.outputs = {{"c0b", 1}};
  config.tasks.push_back(std::move(task));
  arch::ArchitectureConfig arch_config;
  arch_config.hosts.push_back({"h0", 0.99});
  arch_config.sensors.push_back({"s0", 0.99});
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings.push_back({"task0", {"h0"}});
  impl_config.sensor_bindings.push_back({"c0a", "s0"});

  SparseSystem system;
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

constexpr std::int64_t kSparsePeriods = 20;

struct EngineRun {
  sim::SimulationResult result;
  double wall_ms = 0.0;
  std::int64_t events = 0;
  std::int64_t ticks_skipped = 0;
};

/// One timed run of `options` (horizon set by the caller) with a private
/// metrics registry, on sim::simulate or on the every-tick oracle.
EngineRun run_engine(const impl::Implementation& impl, sim::Environment& env,
                     sim::SimulationOptions options, bool every_tick) {
  obs::MetricsRegistry metrics;
  obs::Sink sink(&metrics, nullptr);
  options.sink = &sink;
  const auto start = std::chrono::steady_clock::now();
  auto result = every_tick
                    ? sim::oracle::simulate_every_tick(impl, env, options)
                    : sim::simulate(impl, env, options);
  const auto stop = std::chrono::steady_clock::now();
  if (!result.ok()) {
    std::fprintf(stderr, "simulate failed: %s\n",
                 result.status().to_string().c_str());
    std::abort();
  }
  const auto snapshot = metrics.snapshot();
  EngineRun run;
  run.result = std::move(result).value();
  run.wall_ms = std::chrono::duration<double, std::milli>(stop - start)
                    .count();
  run.events = snapshot.counter("sim.events");
  run.ticks_skipped = snapshot.counter("sim.ticks_skipped");
  return run;
}

EngineRun run_sparse(const impl::Implementation& impl, bool every_tick) {
  sim::NullEnvironment env;
  sim::SimulationOptions options;
  options.periods = kSparsePeriods;
  return run_engine(impl, env, options, every_tick);
}

struct EngineComparison {
  spec::Time horizon_ticks = 0;
  EngineRun oracle;  ///< every grid tick
  EngineRun loop;    ///< sim::simulate
  bool identical = false;
};

EngineComparison compare_engines() {
  const SparseSystem system = make_sparse_system();
  const spec::Time step = harmonic_step(*system.spec);
  EngineComparison cmp;
  cmp.horizon_ticks = kSparsePeriods * system.spec->hyperperiod() / step;
  cmp.oracle = run_sparse(*system.impl, /*every_tick=*/true);
  cmp.loop = run_sparse(*system.impl, /*every_tick=*/false);
  cmp.identical =
      sim::to_json(cmp.oracle.result) == sim::to_json(cmp.loop.result);
  return cmp;
}

/// Simulated grid ticks covered per second of one core.
double horizon_per_core_second(const EngineComparison& cmp, double wall_ms) {
  return static_cast<double>(cmp.horizon_ticks) / (wall_ms / 1e3);
}

// --- loop vs every-tick oracle on the paper's dense 3TS workload ---

constexpr std::int64_t kDensePeriods = 10'000;
/// Each side runs this many times; the fastest wall time is reported
/// (the bound is a 2x regression, so one-off scheduler noise must not
/// decide it).
constexpr int kDenseRepeats = 5;

struct DenseComparison {
  spec::Time horizon_ticks = 0;
  EngineRun oracle;  ///< fastest of kDenseRepeats
  EngineRun loop;    ///< fastest of kDenseRepeats
  /// Every repeat of both sides produced the same report bytes.
  bool identical = false;
};

/// The 3TS closed loop on its ODE plant: a stateful environment that
/// advances once per grid tick on both sides, with an activation at
/// every grid tick — the workload the paper is about, and the one where
/// there is nothing to skip.
DenseComparison compare_dense() {
  auto system = plant::make_three_tank_system({});
  const spec::Specification& specification = *system->specification;
  DenseComparison cmp;
  cmp.horizon_ticks = kDensePeriods * specification.hyperperiod() /
                      harmonic_step(specification);
  std::string reference;
  cmp.identical = true;
  for (const bool every_tick : {true, false}) {
    EngineRun& best = every_tick ? cmp.oracle : cmp.loop;
    for (int repeat = 0; repeat < kDenseRepeats; ++repeat) {
      plant::ThreeTankEnvironment env({}, 0.4, 0.3);
      sim::SimulationOptions options;
      options.periods = kDensePeriods;
      options.actuator_comms = {"u1", "u2"};
      EngineRun run =
          run_engine(*system->implementation, env, options, every_tick);
      const std::string json = sim::to_json(run.result);
      if (reference.empty()) reference = json;
      cmp.identical = cmp.identical && json == reference;
      if (repeat == 0 || run.wall_ms < best.wall_ms) best = std::move(run);
    }
  }
  return cmp;
}

void print_table() {
  bench::header("E6 / Prop. 1",
                "SLLN: empirical limavg -> analytical SRG (3TS, comm u1)");

  auto system = plant::make_three_tank_system({});
  const auto srgs = reliability::compute_srgs(*system->implementation);
  const auto u1 = *system->specification->find_communicator("u1");
  const double analytic = (*srgs)[static_cast<std::size_t>(u1)];
  std::printf("analytical SRG lambda_u1 = %.8f\n\n", analytic);
  std::printf("%-10s %-8s %-14s %-12s %-12s %-12s\n", "periods", "trials",
              "empirical", "|error|", "ci width", "1/sqrt(n)");

  for (const std::int64_t periods :
       {100LL, 1'000LL, 10'000LL, 100'000LL}) {
    sim::MonteCarloRunner runner(mc_options(16, periods, 0));
    const auto report = runner.run(*system->implementation);
    const sim::CommAggregate* comm = report->find("u1");
    std::printf("%-10lld %-8lld %-14.6f %-12.6f %-12.6f %-12.6f\n",
                static_cast<long long>(periods),
                static_cast<long long>(report->trials), comm->empirical,
                std::fabs(comm->empirical - analytic),
                comm->interval.high - comm->interval.low,
                1.0 / std::sqrt(static_cast<double>(comm->updates)));
  }
  std::printf("\nexpected shape: error and interval width shrink like "
              "1/sqrt(pooled updates) (SLLN / CLT rate).\n");

  std::printf("\nparallel scaling (64 trials x 2000 periods):\n");
  std::printf("%-10s %-14s %-10s %-10s\n", "threads", "trials/s", "speedup",
              "identical");
  double base_rate = 0.0;
  std::int64_t reference = -1;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    sim::MonteCarloRunner runner(mc_options(64, 2'000, threads));
    const auto report = runner.run(*system->implementation);
    if (threads == 1u) {
      base_rate = report->trials_per_second;
      reference = report->find("u1")->reliable_updates;
    }
    std::printf("%-10u %-14.1f %-10.2f %-10s\n", threads,
                report->trials_per_second,
                base_rate > 0.0 ? report->trials_per_second / base_rate
                                : 0.0,
                report->find("u1")->reliable_updates == reference ? "yes"
                                                                  : "NO");
  }
  std::printf("(hardware_concurrency = %u; speedup saturates there)\n",
              std::thread::hardware_concurrency());

  const EngineComparison cmp = compare_engines();
  std::printf("\nsimulation loop vs every-tick oracle (sparse periods "
              "999/1000, %lld periods, horizon %lld ticks):\n",
              static_cast<long long>(kSparsePeriods),
              static_cast<long long>(cmp.horizon_ticks));
  std::printf("%-8s %-12s %-18s %-12s %-14s\n", "run", "wall ms",
              "horizon/core-s", "events", "ticks skipped");
  std::printf("%-8s %-12.2f %-18.3g %-12s %-14s\n", "oracle",
              cmp.oracle.wall_ms,
              horizon_per_core_second(cmp, cmp.oracle.wall_ms), "-", "-");
  std::printf("%-8s %-12.2f %-18.3g %-12lld %-14lld\n", "loop",
              cmp.loop.wall_ms,
              horizon_per_core_second(cmp, cmp.loop.wall_ms),
              static_cast<long long>(cmp.loop.events),
              static_cast<long long>(cmp.loop.ticks_skipped));
  std::printf("speedup %.1fx, results %s\n",
              cmp.oracle.wall_ms / std::max(cmp.loop.wall_ms, 1e-6),
              cmp.identical ? "identical" : "DIVERGED");

  const DenseComparison dense = compare_dense();
  std::printf("\nsimulation loop vs every-tick oracle (dense 3TS closed "
              "loop, %lld periods, horizon %lld ticks, best of %d):\n",
              static_cast<long long>(kDensePeriods),
              static_cast<long long>(dense.horizon_ticks), kDenseRepeats);
  std::printf("%-8s %-12s %-12s %-14s\n", "run", "wall ms", "events",
              "ticks skipped");
  std::printf("%-8s %-12.2f %-12s %-14s\n", "oracle", dense.oracle.wall_ms,
              "-", "-");
  std::printf("%-8s %-12.2f %-12lld %-14lld\n", "loop", dense.loop.wall_ms,
              static_cast<long long>(dense.loop.events),
              static_cast<long long>(dense.loop.ticks_skipped));
  std::printf("loop/oracle wall %.2fx, results %s\n",
              dense.loop.wall_ms / std::max(dense.oracle.wall_ms, 1e-6),
              dense.identical ? "identical" : "DIVERGED");
}

bool write_json(const std::string& path) {
  const EngineComparison cmp = compare_engines();
  bench::JsonWriter json;
  json.text("benchmark", "longrun_des_sparse");
  json.integer("periods", kSparsePeriods);
  json.integer("horizon_ticks", cmp.horizon_ticks);
  json.integer("identical", cmp.identical ? 1 : 0);
  json.integer("events", cmp.loop.events);
  json.integer("ticks_skipped", cmp.loop.ticks_skipped);
  json.number("oracle_wall_ms", cmp.oracle.wall_ms);
  json.number("wall_ms", cmp.loop.wall_ms);
  json.number("speedup",
              cmp.oracle.wall_ms / std::max(cmp.loop.wall_ms, 1e-6));
  json.number("events_per_second",
              static_cast<double>(cmp.loop.events) /
                  std::max(cmp.loop.wall_ms / 1e3, 1e-9));
  json.number("oracle_horizon_per_core_second",
              horizon_per_core_second(cmp, cmp.oracle.wall_ms));
  json.number("horizon_per_core_second",
              horizon_per_core_second(cmp, cmp.loop.wall_ms));

  json.integer("hardware_concurrency",
               static_cast<std::int64_t>(std::thread::hardware_concurrency()));

  const DenseComparison dense = compare_dense();
  json.integer("dense_periods", kDensePeriods);
  json.integer("dense_horizon_ticks", dense.horizon_ticks);
  json.integer("dense_identical", dense.identical ? 1 : 0);
  json.integer("dense_events", dense.loop.events);
  json.integer("dense_ticks_skipped", dense.loop.ticks_skipped);
  json.number("dense_oracle_wall_ms", dense.oracle.wall_ms);
  json.number("dense_wall_ms", dense.loop.wall_ms);
  json.number("dense_oracle_ratio",
              dense.loop.wall_ms / std::max(dense.oracle.wall_ms, 1e-6));
  return json.write(path);
}
void BM_MonteCarloThroughput(benchmark::State& state) {
  auto system = plant::make_three_tank_system({});
  const auto options =
      mc_options(16, 1'000, static_cast<unsigned>(state.range(0)));
  sim::MonteCarloRunner runner(options);
  for (auto _ : state) {
    auto report = runner.run(*system->implementation);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * options.trials);
}
BENCHMARK(BM_MonteCarloThroughput)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SimulationThroughput(benchmark::State& state) {
  auto system = plant::make_three_tank_system({});
  sim::NullEnvironment env;
  for (auto _ : state) {
    sim::SimulationOptions options;
    options.periods = state.range(0);
    options.actuator_comms = {"u1", "u2"};
    auto result = sim::simulate(*system->implementation, env, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationThroughput)->Arg(1'000)->Arg(10'000);

void BM_SparseHorizonThroughput(benchmark::State& state) {
  const SparseSystem system = make_sparse_system();
  sim::NullEnvironment env;
  for (auto _ : state) {
    sim::SimulationOptions options;
    options.periods = 2;
    auto result = sim::simulate(*system.impl, env, options);
    benchmark::DoNotOptimize(result);
  }
  // Items = simulated grid ticks: the horizon/core-second metric.
  state.SetItemsProcessed(state.iterations() * 2 *
                          system.spec->hyperperiod());
}
BENCHMARK(BM_SparseHorizonThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

LRT_BENCH_MAIN_JSON(print_table, write_json)
