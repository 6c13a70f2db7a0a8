// Differential oracle for the simulation loop (ctest label
// `differential`): sim::simulate, which visits only activation-table
// instants, must be bit-identical to the every-grid-tick oracle of
// tests/sim_tick_oracle.h — results, value traces, monitor callback
// sequences, RNG-driven fault outcomes, obs counters — on randomized
// workloads, multi-component designs (host-disjoint pipeline groups
// joined by bridge tasks), fault plans (including off-grid scripted host
// events), timed execution, mid-run remaps, the adapt self-healing path,
// the Monte Carlo runner at several thread counts, and the lrt:: facade.
// The activation table itself is checked against a brute-force scan of
// every grid instant. A mismatch writes des-mismatch-<seed>.json next to
// the binary so CI can upload the failing workload spec as an artifact.
#include <cstdint>
#include <fstream>
#include <memory>
#include <regex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/self_healing.h"
#include "gen/workload.h"
#include "lrt/lrt.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "plant/three_tank_system.h"
#include "sim/monte_carlo.h"
#include "sim/runtime.h"
#include "sim/runtime_core.h"
#include "support/rng.h"
#include "tests/sim_tick_oracle.h"
#include "tests/test_util.h"

namespace lrt::sim {
namespace {

using spec::Time;
using oracle::simulate_every_tick;

// --- oracle plumbing ---

/// One recorded RuntimeMonitor callback; the loop and the oracle must
/// produce the exact same sequence (the adapt layer's entire view of a run).
struct Callback {
  int kind = 0;  ///< 0 invocation, 1 sensor, 2 update, 3 boundary
  Time now = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  friend bool operator==(const Callback&, const Callback&) = default;
};

class RecordingMonitor : public RuntimeMonitor {
 public:
  void on_invocation(Time now, spec::TaskId task, arch::HostId host,
                     bool success) override {
    calls.push_back({0, now, task, host, success ? 1 : 0});
  }
  void on_sensor_update(Time now, spec::CommId comm, arch::SensorId sensor,
                        bool reliable) override {
    calls.push_back({1, now, comm, sensor, reliable ? 1 : 0});
  }
  void on_update(Time now, spec::CommId comm, bool reliable,
                 int contributors) override {
    calls.push_back({2, now, comm, reliable ? 1 : 0, contributors});
  }
  const impl::Implementation* on_period_boundary(Time now) override {
    calls.push_back({3, now, 0, 0, 0});
    return nullptr;
  }

  std::vector<Callback> calls;
};

/// Field-by-field equality, exact on doubles: the loop and the oracle run
/// the same arithmetic in the same order, so even rounding must agree.
void expect_identical(const SimulationResult& tick,
                      const SimulationResult& event) {
  EXPECT_EQ(tick.periods, event.periods);
  EXPECT_EQ(tick.ticks, event.ticks);
  EXPECT_EQ(tick.invocations, event.invocations);
  EXPECT_EQ(tick.invocation_failures, event.invocation_failures);
  EXPECT_EQ(tick.committed_updates, event.committed_updates);
  EXPECT_EQ(tick.vote_divergences, event.vote_divergences);
  EXPECT_EQ(tick.deadline_misses, event.deadline_misses);
  EXPECT_EQ(tick.remaps_installed, event.remaps_installed);
  ASSERT_EQ(tick.comm_stats.size(), event.comm_stats.size());
  for (std::size_t c = 0; c < tick.comm_stats.size(); ++c) {
    const CommStats& ts = tick.comm_stats[c];
    const CommStats& es = event.comm_stats[c];
    EXPECT_EQ(ts.name, es.name);
    EXPECT_EQ(ts.samples, es.samples) << ts.name;
    EXPECT_EQ(ts.reliable_samples, es.reliable_samples) << ts.name;
    EXPECT_EQ(ts.limit_average, es.limit_average) << ts.name;
    EXPECT_EQ(ts.updates, es.updates) << ts.name;
    EXPECT_EQ(ts.reliable_updates, es.reliable_updates) << ts.name;
  }
  ASSERT_EQ(tick.value_traces.size(), event.value_traces.size());
  for (const auto& [name, trace] : tick.value_traces) {
    const auto it = event.value_traces.find(name);
    ASSERT_NE(it, event.value_traces.end()) << name;
    EXPECT_EQ(trace, it->second) << name;
  }
}

/// Counters only the production loop emits (its visiting diagnostics);
/// every other "sim.*" counter is shared and must agree exactly.
bool loop_only_counter(std::string_view name) {
  return name == "sim.events" || name == "sim.ticks_skipped";
}

/// Runs the same configuration on the every-tick oracle ("tick") and the
/// production loop ("event") with fresh recording monitors and private
/// metrics registries, and checks everything matched. On a mismatch,
/// dumps the failing configuration for the CI artifact.
void expect_engines_agree(const impl::Implementation& impl,
                          Environment& tick_env, Environment& event_env,
                          SimulationOptions options, std::uint64_t seed,
                          const std::string& what) {
  RecordingMonitor tick_monitor;
  obs::MetricsRegistry tick_metrics;
  obs::Sink tick_sink(&tick_metrics, nullptr);
  options.monitor = &tick_monitor;
  options.sink = &tick_sink;
  const auto tick = simulate_every_tick(impl, tick_env, options);
  ASSERT_TRUE(tick.ok()) << tick.status();

  RecordingMonitor event_monitor;
  obs::MetricsRegistry event_metrics;
  obs::Sink event_sink(&event_metrics, nullptr);
  options.monitor = &event_monitor;
  options.sink = &event_sink;
  const auto event = simulate(impl, event_env, options);
  ASSERT_TRUE(event.ok()) << event.status();

  expect_identical(*tick, *event);
  EXPECT_EQ(tick_monitor.calls.size(), event_monitor.calls.size());
  EXPECT_TRUE(tick_monitor.calls == event_monitor.calls)
      << "monitor callback sequences diverged (" << what << ")";
  const obs::MetricsSnapshot tick_counters = tick_metrics.snapshot();
  const obs::MetricsSnapshot event_counters = event_metrics.snapshot();
  for (const auto& [name, value] : tick_counters.counters) {
    EXPECT_EQ(event_counters.counter(name), value) << name << " (" << what
                                                   << ")";
  }
  for (const auto& [name, value] : event_counters.counters) {
    if (loop_only_counter(name)) continue;
    EXPECT_EQ(tick_counters.counter(name), value) << name << " (" << what
                                                  << ")";
  }
  if (testing::Test::HasFailure()) {
    // Reproduction artifact: everything needed to replay the workload.
    std::ofstream artifact("des-mismatch-" + std::to_string(seed) + ".json");
    artifact << "{\"seed\": " << seed << ", \"what\": \"" << what
             << "\", \"periods\": " << options.periods
             << ", \"broadcast_reliability\": "
             << options.broadcast_reliability
             << ", \"model_execution_time\": "
             << (options.model_execution_time ? "true" : "false")
             << ", \"faults_seed\": " << options.faults.seed
             << ", \"tick\": " << to_json(*tick)
             << ", \"event\": " << to_json(*event) << "}\n";
  }
}

/// A fault plan exercising the RNG (every invocation and sensor draw) and
/// scripted availability flips, including instants off the harmonic grid.
SimulationOptions faulty_options(std::uint64_t seed, Time horizon_hint) {
  SimulationOptions options;
  options.periods = 40;
  options.broadcast_reliability = 0.9;
  options.faults.seed = seed * 7919 + 1;
  options.faults.host_events.push_back(
      {.time = horizon_hint / 3 + 1, .host = 0, .up = false});
  options.faults.host_events.push_back(
      {.time = 2 * horizon_hint / 3 + 1, .host = 0, .up = true});
  return options;
}

/// G host-disjoint pipeline groups with one-directional data edges:
///   group g:  sens -> g_c0 -> t1 -> g_c1 -> t2 -> g_c2
///   bridge g (g>0): reads (g-1)_c2 and the foreign sensor (g-1)_c0,
///                   writes g_c3.
/// Every group's tasks are replicated on the group's private host pair,
/// so votes stay intra-group while bridges carry values (and sensor
/// reads) across components: a multi-component design the generator
/// rarely produces.
test::System multi_group_system(int groups) {
  constexpr Time kPeriod = 10;
  auto cname = [](int g, int k) {
    return "g" + std::to_string(g) + "_c" + std::to_string(k);
  };
  auto tname = [](int g, const char* role) {
    return "g" + std::to_string(g) + "_" + role;
  };
  spec::SpecificationConfig config;
  config.name = "multigroup";
  for (int g = 0; g < groups; ++g) {
    for (int k = 0; k <= 2; ++k) {
      config.communicators.push_back(test::comm(cname(g, k), kPeriod, 0.3));
    }
    if (g > 0) {
      config.communicators.push_back(test::comm(cname(g, 3), kPeriod, 0.3));
    }
    config.tasks.push_back(
        test::task(tname(g, "t1"), {{cname(g, 0), 0}}, {{cname(g, 1), 1}}));
    config.tasks.push_back(
        test::task(tname(g, "t2"), {{cname(g, 1), 1}}, {{cname(g, 2), 2}}));
    if (g > 0) {
      config.tasks.push_back(
          test::task(tname(g, "bridge"),
                     {{cname(g - 1, 2), 2}, {cname(g - 1, 0), 2}},
                     {{cname(g, 3), 3}}));
    }
  }

  test::System system;
  system.spec =
      std::make_unique<spec::Specification>(test::build_spec(config));

  arch::ArchitectureConfig arch_config;
  for (int g = 0; g < groups; ++g) {
    arch_config.hosts.push_back({"h" + std::to_string(2 * g), 0.9});
    arch_config.hosts.push_back({"h" + std::to_string(2 * g + 1), 0.9});
  }
  impl::ImplementationConfig impl_config;
  for (int g = 0; g < groups; ++g) {
    const std::vector<std::string> pair = {"h" + std::to_string(2 * g),
                                           "h" + std::to_string(2 * g + 1)};
    impl_config.task_mappings.push_back({tname(g, "t1"), pair});
    impl_config.task_mappings.push_back({tname(g, "t2"), pair});
    if (g > 0) impl_config.task_mappings.push_back({tname(g, "bridge"), pair});
    arch_config.sensors.push_back({"sens_" + cname(g, 0), 0.95});
    impl_config.sensor_bindings.push_back(
        {cname(g, 0), "sens_" + cname(g, 0)});
  }

  auto arch_result = arch::Architecture::Build(std::move(arch_config));
  EXPECT_TRUE(arch_result.ok()) << arch_result.status();
  system.arch =
      std::make_unique<arch::Architecture>(std::move(arch_result).value());
  auto impl_result = impl::Implementation::Build(*system.spec, *system.arch,
                                                 std::move(impl_config));
  EXPECT_TRUE(impl_result.ok()) << impl_result.status();
  system.impl =
      std::make_unique<impl::Implementation>(std::move(impl_result).value());
  return system;
}

/// A fault plan exercising every RNG site plus scripted availability
/// flips on each group's first host, deliberately off the harmonic grid.
SimulationOptions multi_group_options(std::uint64_t seed, int groups) {
  SimulationOptions options;
  options.periods = 40;
  options.broadcast_reliability = 0.9;
  options.faults.seed = seed * 7919 + 1;
  for (int g = 0; g < groups; ++g) {
    options.faults.host_events.push_back(
        {.time = 7 + 13 * g, .host = 2 * g, .up = false});
    options.faults.host_events.push_back(
        {.time = 203 + 17 * g, .host = 2 * g, .up = true});
  }
  return options;
}

constexpr int kGroups = 3;

// --- the differential suites ---

TEST(EventRuntimeDifferential, RandomizedWorkloads) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Xoshiro256 rng(seed);
    gen::WorkloadOptions shape;
    shape.with_functions = true;  // arithmetic values, not just bottom/ok
    shape.max_hosts = 3;
    auto workload = gen::random_workload(rng, shape);
    ASSERT_TRUE(workload.ok()) << workload.status();

    SimulationOptions options =
        faulty_options(seed, 40 * workload->specification->base_lcm());
    for (const auto& comm : workload->specification->communicators()) {
      options.record_values_for.push_back(comm.name);
    }
    NullEnvironment tick_env;
    NullEnvironment event_env;
    expect_engines_agree(*workload->implementation, tick_env, event_env,
                         options, seed, "random workload");
  }
}

TEST(EventRuntimeDifferential, TimedExecutionMode) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Xoshiro256 rng(seed);
    gen::WorkloadOptions shape;
    shape.wcet = 2 + static_cast<Time>(seed % 4);
    shape.wctt = 1 + static_cast<Time>(seed % 3);
    auto workload = gen::random_workload(rng, shape);
    ASSERT_TRUE(workload.ok()) << workload.status();

    SimulationOptions options =
        faulty_options(seed, 40 * workload->specification->base_lcm());
    options.model_execution_time = true;
    NullEnvironment tick_env;
    NullEnvironment event_env;
    expect_engines_agree(*workload->implementation, tick_env, event_env,
                         options, seed, "timed execution");
  }

  // A job that spans a host outage starting and ending at idle grid
  // instants: a downed host's processor freezes, so the loop must split
  // its processor window where the outage lands (grid step 2, activation
  // instants 0, 4, 6, 8 per period 12; the outage covers [2, 4)). Frozen
  // for two ticks, the 10-tick job's output arrives after its write
  // instant — a deadline miss only the split window produces.
  spec::SpecificationConfig config;
  config.name = "outage";
  config.communicators = {test::comm("c0", 4, 0.3), test::comm("c1", 6, 0.3)};
  config.tasks = {test::task("task1", {{"c0", 0}}, {{"c1", 2}})};
  test::System system;
  system.spec =
      std::make_unique<spec::Specification>(test::build_spec(config));
  arch::ArchitectureConfig arch_config;
  arch_config.hosts.push_back({"h0", 0.9});
  arch_config.sensors.push_back({"sens_c0", 0.9});
  arch_config.default_wcet = 10;
  system.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings.push_back({"task1", {"h0"}});
  impl_config.sensor_bindings.push_back({"c0", "sens_c0"});
  auto impl = impl::Implementation::Build(*system.spec, *system.arch,
                                          std::move(impl_config));
  ASSERT_TRUE(impl.ok()) << impl.status();
  SimulationOptions options;
  options.periods = 5;
  options.model_execution_time = true;
  options.faults.host_events = {{.time = 1, .host = 0, .up = false},
                                {.time = 3, .host = 0, .up = true}};
  NullEnvironment tick_env;
  NullEnvironment event_env;
  expect_engines_agree(*impl, tick_env, event_env, options, /*seed=*/0,
                       "timed outage between activations");
  const auto run = simulate(*impl, event_env, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->deadline_misses, 1);
}

// --- multi-component designs ---
//
// Designs whose host-disjoint components run side by side, joined only by
// data edges. Votes stay inside a component while values and sensor reads
// cross between them, a shape the default generator rarely produces.

TEST(ParallelRuntimeDifferential, MultiGroupPipelineShards) {
  const test::System groups = multi_group_system(kGroups);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SimulationOptions options = multi_group_options(seed, kGroups);
    for (const auto& comm : groups.spec->communicators()) {
      options.record_values_for.push_back(comm.name);
    }
    NullEnvironment tick_env;
    NullEnvironment event_env;
    expect_engines_agree(*groups.impl, tick_env, event_env, options, seed,
                         "multi-group pipeline");
  }
}

TEST(ParallelRuntimeDifferential, MultiGroupTimedExecution) {
  // The default platform metrics give WCET and WCTT 1 everywhere, so every
  // bridge read lands one tick after the producing write.
  const test::System groups = multi_group_system(kGroups);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SimulationOptions options = multi_group_options(seed, kGroups);
    options.model_execution_time = true;
    NullEnvironment tick_env;
    NullEnvironment event_env;
    expect_engines_agree(*groups.impl, tick_env, event_env, options, seed,
                         "timed groups");
  }
}

TEST(ParallelRuntimeDifferential, RandomizedWorkloads) {
  // Tree-structured dataflow (fan-in 1) from several sensors over up to
  // six sparsely replicated hosts: generated designs made of several
  // narrow chains spread over more hosts than the default shape uses.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256 rng(seed);
    gen::WorkloadOptions shape;
    shape.with_functions = true;
    shape.tree_structured = true;
    shape.min_sensors = 2;
    shape.max_sensors = 4;
    shape.max_fan_in = 1;
    shape.min_hosts = 2;
    shape.max_hosts = 6;
    shape.replication_density = 0.2;
    auto workload = gen::random_workload(rng, shape);
    ASSERT_TRUE(workload.ok()) << workload.status();

    SimulationOptions options =
        faulty_options(seed, 40 * workload->specification->base_lcm());
    for (const auto& comm : workload->specification->communicators()) {
      options.record_values_for.push_back(comm.name);
    }
    NullEnvironment tick_env;
    NullEnvironment event_env;
    expect_engines_agree(*workload->implementation, tick_env, event_env,
                         options, seed, "random multi-component workload");
  }
}

/// Varied communicator periods make the harmonic grid strictly finer than
/// any single period (gcd < min period), so the loop actually skips
/// instants; scripted events intentionally land off the grid.
TEST(EventRuntimeDifferential, VariedPeriodChainWithOffGridHostEvents) {
  spec::SpecificationConfig config;
  config.name = "varied";
  config.communicators = {test::comm("c0", 6, 0.3), test::comm("c1", 4, 0.3),
                          test::comm("c2", 10, 0.3)};
  config.tasks = {test::task("task1", {{"c0", 1}}, {{"c1", 2}}),
                  test::task("task2", {{"c1", 1}}, {{"c2", 2}})};
  test::System system = test::single_host_system(std::move(config), 0.9, 0.9);

  SimulationOptions options;
  options.periods = 50;
  options.broadcast_reliability = 0.85;
  options.record_values_for = {"c0", "c1", "c2"};
  // Step is gcd(6,4,10) = 2; odd times sit between ticks.
  options.faults.host_events.push_back({.time = 7, .host = 0, .up = false});
  options.faults.host_events.push_back({.time = 13, .host = 0, .up = true});
  options.faults.host_events.push_back({.time = 121, .host = 0, .up = false});
  options.faults.host_events.push_back({.time = 240, .host = 0, .up = true});
  NullEnvironment tick_env;
  NullEnvironment event_env;
  expect_engines_agree(*system.impl, tick_env, event_env, options,
                       /*seed=*/601, "varied periods");
}

TEST(EventRuntimeDifferential, ThreeTankClosedLoopEnvironment) {
  // A stateful plant: the environment integrates an ODE in advance() and
  // feeds sensors from it, so any divergence in instants visited or
  // actuator writes compounds. Metrics must also agree bit-for-bit.
  auto run = [](bool every_tick) {
    auto system = plant::make_three_tank_system({});
    EXPECT_TRUE(system.ok()) << system.status();
    plant::ThreeTankEnvironment env({}, 0.4, 0.3);
    SimulationOptions options;
    options.periods = 40;
    options.actuator_comms = {"u1", "u2"};
    options.record_values_for = {"l1", "u1"};
    options.faults.host_events.push_back(
        {.time = 5'000, .host = 1, .up = false});
    auto result =
        every_tick
            ? simulate_every_tick(*system->implementation, env, options)
            : simulate(*system->implementation, env, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::pair(std::move(result).value(), env.metrics());
  };
  const auto [tick, tick_metrics] = run(true);
  const auto [event, event_metrics] = run(false);
  expect_identical(tick, event);
  EXPECT_EQ(tick_metrics.samples, event_metrics.samples);
  EXPECT_EQ(tick_metrics.rms_error1, event_metrics.rms_error1);
  EXPECT_EQ(tick_metrics.rms_error2, event_metrics.rms_error2);
  EXPECT_EQ(tick_metrics.max_error1, event_metrics.max_error1);
  EXPECT_EQ(tick_metrics.max_error2, event_metrics.max_error2);
}

TEST(EventRuntimeDifferential, MidRunRemapResynchronizesReleases) {
  // The self-healing controller detects the scripted kill and installs a
  // repair mid-run: the loop must dispatch the new mapping from the same
  // boundary the every-tick oracle does.
  auto run = [](bool every_tick, int host_count) {
    plant::ThreeTankScenario scenario;
    scenario.variant = plant::ThreeTankVariant::kReplicatedTasks;
    scenario.lrc_controls = 0.98;
    scenario.host_count = host_count;
    auto system = plant::make_three_tank_system(scenario);
    EXPECT_TRUE(system.ok()) << system.status();
    adapt::SelfHealingController controller(*system->implementation);
    NullEnvironment env;
    SimulationOptions options;
    options.periods = 200;
    options.actuator_comms = {"u1", "u2"};
    options.faults.host_events = {{.time = 20'000, .host = 0, .up = false}};
    options.monitor = &controller;
    auto result =
        every_tick
            ? simulate_every_tick(*system->implementation, env, options)
            : simulate(*system->implementation, env, options);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::pair(std::move(result).value(),
                     controller.repairs().empty()
                         ? Time{-1}
                         : controller.repairs().front().committed_at);
  };
  // host_count 3: clean remap. host_count 2: capacity-starved platform,
  // where the repair degrades gracefully (exercises shedding paths).
  for (const int hosts : {3, 2}) {
    const auto [tick, tick_repair_at] = run(true, hosts);
    const auto [event, event_repair_at] = run(false, hosts);
    expect_identical(tick, event);
    EXPECT_EQ(tick_repair_at, event_repair_at) << hosts << " hosts";
    EXPECT_GE(tick.remaps_installed, 1) << hosts << " hosts";
  }
}

TEST(EventRuntimeDifferential, SharedObsCountersAgree) {
  // Pooled "sim.*" counters must match the oracle's; the loop
  // additionally reports its own sim.events / sim.ticks_skipped, and on
  // this sparse-ish workload it must actually skip instants.
  auto counters = [](bool every_tick) {
    spec::SpecificationConfig config;
    config.name = "sparse";
    config.communicators = {test::comm("c0", 35, 0.3),
                            test::comm("c1", 50, 0.3)};
    config.tasks = {test::task("task1", {{"c0", 1}}, {{"c1", 2}})};
    test::System system = test::single_host_system(std::move(config));
    obs::MetricsRegistry metrics;
    obs::Sink sink(&metrics, nullptr);
    NullEnvironment env;
    SimulationOptions options;
    options.periods = 30;
    options.sink = &sink;
    EXPECT_TRUE((every_tick ? simulate_every_tick(*system.impl, env, options)
                            : simulate(*system.impl, env, options))
                    .ok());
    return metrics.snapshot();
  };
  const obs::MetricsSnapshot tick = counters(true);
  const obs::MetricsSnapshot event = counters(false);
  for (const auto& [name, value] : tick.counters) {
    EXPECT_EQ(event.counter(name), value) << name;
  }
  EXPECT_GT(event.counter("sim.events"), 0);
  // Step gcd(35, 50) = 5, hyperperiod 350: 70 grid ticks per period, but
  // only 10 + 7 + 1 activations — most instants must be skipped.
  EXPECT_GT(event.counter("sim.ticks_skipped"),
            event.counter("sim.events"));
  EXPECT_EQ(tick.counter("sim.events"), 0)
      << "the every-tick oracle emits no loop counters";
}

TEST(EventRuntimeDifferential, MonteCarloRunnerAcrossThreadCounts) {
  // Every thread count must produce one identical report, and every
  // trial (replayed with the runner's own seed stream) must match the
  // every-tick oracle.
  auto system = plant::make_three_tank_system({});
  ASSERT_TRUE(system.ok()) << system.status();
  MonteCarloOptions options;
  options.simulation.periods = 20;
  options.simulation.actuator_comms = {"u1", "u2"};
  options.trials = 12;
  options.seed = 20260808;
  auto report_json = [&](unsigned threads) {
    options.threads = threads;
    const auto report =
        MonteCarloRunner(options).run(*system->implementation);
    EXPECT_TRUE(report.ok()) << report.status();
    // Wall-clock timing (and the echoed thread count) are the only
    // legitimately varying fields.
    std::string json = to_json(*report);
    json = std::regex_replace(
        json,
        std::regex(
            "\"(elapsed_seconds|trials_per_second|threads)\":[0-9.eE+-]+"),
        "\"$1\":0");
    return json;
  };
  const std::string reference = report_json(1);
  for (const unsigned threads : {1u, 2u, 8u}) {
    EXPECT_EQ(report_json(threads), reference) << threads << " threads";
  }
  SplitMix64 seeds(options.seed);
  for (std::int64_t trial = 0; trial < options.trials; ++trial) {
    SimulationOptions trial_options = options.simulation;
    trial_options.faults.seed = seeds.next();
    NullEnvironment tick_env;
    NullEnvironment event_env;
    const auto tick =
        simulate_every_tick(*system->implementation, tick_env, trial_options);
    const auto event =
        simulate(*system->implementation, event_env, trial_options);
    ASSERT_TRUE(tick.ok()) << tick.status();
    ASSERT_TRUE(event.ok()) << event.status();
    expect_identical(*tick, *event);
  }
}

TEST(EventRuntimeDifferential, FacadeEnginePassthrough) {
  // lrt::simulate forwards SimulationOptions verbatim to the one loop, so
  // the facade must agree with the every-tick oracle.
  test::System system =
      test::single_host_system(test::chain_spec_config(2, 12, 0.4));
  const lrt::Workload workload =
      lrt::borrow_workload(*system.spec, *system.arch);
  lrt::SimulateOptions options;
  options.simulation.periods = 25;
  options.simulation.broadcast_reliability = 0.9;
  NullEnvironment tick_env;
  const auto tick =
      simulate_every_tick(*system.impl, tick_env, options.simulation);
  ASSERT_TRUE(tick.ok()) << tick.status();
  const auto event = lrt::simulate(workload, *system.impl, options);
  ASSERT_TRUE(event.ok()) << event.status();
  expect_identical(*tick, *event);
}

// --- the activation table ---

/// What the body must do at one grid instant, derived the way the
/// every-tick body used to derive it: `% period` over every communicator,
/// the writer's write instants, every task x input, and every read time.
struct GridScan {
  std::vector<detail::CommAccess> accesses;
  std::vector<detail::InputLatch> latches;
  std::vector<spec::TaskId> releases;
};

/// Whether a write of `comm` commits at epoch-relative instant `rel_now`
/// (any number of periods after the epoch).
bool write_due(const spec::Specification& specification, spec::CommId comm,
               Time rel_now) {
  const Time hyperperiod = specification.hyperperiod();
  for (spec::TaskId t = 0;
       t < static_cast<spec::TaskId>(specification.tasks().size()); ++t) {
    for (const spec::PortRef& port : specification.task(t).outputs) {
      if (port.comm != comm) continue;
      const Time instant =
          specification.communicator(comm).period * port.instance;
      if (rel_now >= instant && (rel_now - instant) % hyperperiod == 0) {
        return true;
      }
    }
  }
  return false;
}

GridScan scan_grid_instant(const spec::Specification& specification,
                           Time rel) {
  GridScan scan;
  for (spec::CommId c = 0;
       c < static_cast<spec::CommId>(specification.communicators().size());
       ++c) {
    if (rel % specification.communicator(c).period != 0) continue;
    detail::CommAccess access{.comm = c};
    if (specification.is_input_communicator(c)) {
      if (!specification.readers_of(c).empty()) {
        access.kind = detail::AccessKind::kSensor;
      }
    } else if (write_due(specification, c, rel + specification.hyperperiod())) {
      access.kind = detail::AccessKind::kVote;
      // The earliest of this slot's commits: instant `rel` itself, or
      // pi_S when only the end-of-period write lands on slot 0.
      access.due_from = write_due(specification, c, rel)
                            ? rel
                            : rel + specification.hyperperiod();
    }
    scan.accesses.push_back(access);
  }
  for (spec::TaskId t = 0;
       t < static_cast<spec::TaskId>(specification.tasks().size()); ++t) {
    const spec::Task& task = specification.task(t);
    for (std::size_t j = 0; j < task.inputs.size(); ++j) {
      const spec::PortRef& port = task.inputs[j];
      if (specification.communicator(port.comm).period * port.instance ==
          rel) {
        scan.latches.push_back({.task = t,
                                .input = static_cast<std::uint32_t>(j),
                                .comm = port.comm});
      }
    }
    if (specification.read_time(t) == rel) scan.releases.push_back(t);
  }
  return scan;
}

/// The compiled table must list exactly the brute-force work at every grid
/// instant of one specification period, and nothing at idle instants.
void expect_table_matches_scan(const spec::Specification& specification,
                               const detail::ActivationTable& table,
                               const std::string& what) {
  const Time hyperperiod = specification.hyperperiod();
  const Time step = specification.base_period();
  std::size_t slot = 0;
  for (Time rel = 0; rel < hyperperiod; rel += step) {
    const GridScan scan = scan_grid_instant(specification, rel);
    const bool active = rel == 0 || !scan.accesses.empty() ||
                        !scan.latches.empty() || !scan.releases.empty();
    if (!active) {
      EXPECT_EQ(table.find(rel), detail::ActivationTable::kNoSlot)
          << what << ": idle instant " << rel << " is on the table";
      continue;
    }
    ASSERT_LT(slot, table.size()) << what << ": instant " << rel;
    ASSERT_EQ(table.at(slot), rel) << what << ": slot " << slot;
    EXPECT_EQ(table.find(rel), slot) << what << ": instant " << rel;
    const auto accesses = table.accesses(slot);
    EXPECT_TRUE(std::vector(accesses.begin(), accesses.end()) ==
                scan.accesses)
        << what << ": accesses at " << rel;
    const auto latches = table.latches(slot);
    EXPECT_TRUE(std::vector(latches.begin(), latches.end()) == scan.latches)
        << what << ": latches at " << rel;
    const auto releases = table.releases(slot);
    EXPECT_EQ(std::vector(releases.begin(), releases.end()), scan.releases)
        << what << ": releases at " << rel;
    EXPECT_EQ(table.activations(slot),
              static_cast<std::int64_t>(scan.accesses.size() +
                                        scan.releases.size()) +
                  (rel == 0 ? 1 : 0))
        << what << ": activations at " << rel;
    ++slot;
  }
  EXPECT_EQ(slot, table.size()) << what << ": instants off the grid";
  // Every output commits at its write instant's slot.
  for (spec::TaskId t = 0;
       t < static_cast<spec::TaskId>(specification.tasks().size()); ++t) {
    const spec::Task& task = specification.task(t);
    for (std::size_t k = 0; k < task.outputs.size(); ++k) {
      const spec::PortRef& port = task.outputs[k];
      const Time write =
          specification.communicator(port.comm).period * port.instance;
      EXPECT_EQ(table.at(table.commit_slot(t, k)), write % hyperperiod)
          << what << ": commit slot of " << task.name << " output " << k;
    }
  }
}

/// Hot-swaps the running workload onto `next` at the first boundary at or
/// after `at`.
class SwapMonitor : public RuntimeMonitor {
 public:
  SwapMonitor(const impl::Implementation& next, Time at)
      : next_(next), at_(at) {}
  const impl::Implementation* on_update_point(Time now) override {
    return now >= at_ ? &next_ : nullptr;
  }

 private:
  const impl::Implementation& next_;
  Time at_;
};

TEST(EventRuntimeDifferential, ActivationTableMatchesGridScan) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    for (const bool tree : {false, true}) {
      Xoshiro256 rng(seed);
      gen::WorkloadOptions shape;
      shape.tree_structured = tree;
      shape.max_hosts = tree ? 6 : 3;
      auto workload = gen::random_workload(rng, shape);
      ASSERT_TRUE(workload.ok()) << workload.status();
      expect_table_matches_scan(
          *workload->specification,
          detail::ActivationTable::Build(*workload->specification),
          "random workload " + std::to_string(seed));
    }
  }
  auto three_tank = plant::make_three_tank_system({});
  ASSERT_TRUE(three_tank.ok()) << three_tank.status();
  expect_table_matches_scan(
      *three_tank->specification,
      detail::ActivationTable::Build(*three_tank->specification), "3TS");
  const test::System groups = multi_group_system(kGroups);
  expect_table_matches_scan(
      *groups.spec, detail::ActivationTable::Build(*groups.spec),
      "multi-group");

  // VariedPeriodChainWithOffGridHostEvents' specification, then a swap
  // onto a specification with another grid (step 2 -> 1) on the same
  // architecture: the table the core compiles at the swap must match too.
  spec::SpecificationConfig config;
  config.name = "varied";
  config.communicators = {test::comm("c0", 6, 0.3), test::comm("c1", 4, 0.3),
                          test::comm("c2", 10, 0.3)};
  config.tasks = {test::task("task1", {{"c0", 1}}, {{"c1", 2}}),
                  test::task("task2", {{"c1", 1}}, {{"c2", 2}})};
  const test::System varied =
      test::single_host_system(std::move(config), 0.9, 0.9);
  expect_table_matches_scan(*varied.spec,
                            detail::ActivationTable::Build(*varied.spec),
                            "varied periods");

  spec::SpecificationConfig next_config;
  next_config.name = "varied_next";
  next_config.communicators = {test::comm("c0", 9, 0.3),
                               test::comm("c1", 6, 0.3),
                               test::comm("c3", 4, 0.3)};
  next_config.tasks = {test::task("task1", {{"c0", 1}}, {{"c1", 2}}),
                       test::task("task3", {{"c1", 2}, {"c0", 0}},
                                  {{"c3", 5}, {"c3", 9}})};
  const spec::Specification next_spec =
      test::build_spec(std::move(next_config));
  impl::ImplementationConfig next_mapping;
  next_mapping.task_mappings = {{"task1", {"h0"}}, {"task3", {"h0"}}};
  next_mapping.sensor_bindings = {{"c0", "sens_c0"}};
  auto next = impl::Implementation::Build(next_spec, *varied.arch,
                                          std::move(next_mapping));
  ASSERT_TRUE(next.ok()) << next.status();

  SwapMonitor swap(*next, /*at=*/3 * varied.spec->hyperperiod());
  SimulationOptions options;
  options.periods = 10;
  options.monitor = &swap;
  NullEnvironment env;
  detail::RuntimeCore core({varied.impl.get(), 1}, env, options);
  ASSERT_TRUE(core.init().ok());
  for (Time now = 0; core.generation() == 0 && now < core.duration();
       now += core.step()) {
    ASSERT_TRUE(core.tick(now).ok());
  }
  ASSERT_EQ(core.generation(), 1);
  EXPECT_EQ(&core.spec(), &next_spec);
  expect_table_matches_scan(next_spec, core.activations(), "post-swap");

  // The swap run itself, loop against oracle.
  SwapMonitor tick_swap(*next, 3 * varied.spec->hyperperiod());
  SwapMonitor event_swap(*next, 3 * varied.spec->hyperperiod());
  // Host events off the outgoing grid, and on both sides of the swap.
  options.faults.host_events = {{.time = 41, .host = 0, .up = false},
                                {.time = 47, .host = 0, .up = true},
                                {.time = 203, .host = 0, .up = false},
                                {.time = 233, .host = 0, .up = true}};
  options.record_values_for = {"c0", "c1", "c3"};
  options.monitor = &tick_swap;
  NullEnvironment tick_env;
  const auto tick = simulate_every_tick(*varied.impl, tick_env, options);
  options.monitor = &event_swap;
  NullEnvironment event_env;
  const auto event = simulate(*varied.impl, event_env, options);
  ASSERT_TRUE(tick.ok()) << tick.status();
  ASSERT_TRUE(event.ok()) << event.status();
  EXPECT_EQ(event->spec_swaps, 1);
  expect_identical(*tick, *event);
}

}  // namespace
}  // namespace lrt::sim
