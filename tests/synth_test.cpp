// Unit tests for src/synth: greedy and exhaustive replication synthesis,
// optimality on small systems, unsatisfiable requirements, the paper's
// scenario-1 replication rediscovered automatically, and the engine's
// equivalence/determinism contract against the build-and-analyze oracle
// (tests/synth_reference_oracle.h), including timing tables with holes.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "gen/workload.h"
#include "plant/three_tank_system.h"
#include "reliability/analysis.h"
#include "sched/schedulability.h"
#include "support/rng.h"
#include "synth/synthesis.h"
#include "tests/synth_reference_oracle.h"
#include "tests/test_util.h"

namespace lrt::synth {
namespace {

using test::comm;
using test::task;

struct Fixture {
  std::unique_ptr<spec::Specification> spec;
  std::unique_ptr<arch::Architecture> arch;
  std::vector<impl::ImplementationConfig::SensorBinding> bindings;
};

/// sensor "in" -> t1 -> "mid" -> t2 -> "out"; LRCs adjustable.
Fixture chain_fixture(double lrc_mid, double lrc_out,
                      std::vector<arch::Host> hosts) {
  Fixture f;
  spec::SpecificationConfig config;
  config.communicators = {comm("in", 10, 0.5), comm("mid", 10, lrc_mid),
                          comm("out", 10, lrc_out)};
  config.tasks = {task("t1", {{"in", 0}}, {{"mid", 1}}),
                  task("t2", {{"mid", 1}}, {{"out", 2}})};
  f.spec = std::make_unique<spec::Specification>(
      test::build_spec(std::move(config)));
  arch::ArchitectureConfig arch_config;
  arch_config.hosts = std::move(hosts);
  arch_config.sensors = {{"s", 0.999}};
  f.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  f.bindings = {{"in", "s"}};
  return f;
}

SynthesisOptions strategy(SynthesisOptions::Strategy s) {
  SynthesisOptions options;
  options.strategy = s;
  return options;
}

/// Production synthesis and the reference oracle share one signature.
using Synthesizer = decltype(&synthesize);
constexpr std::array<Synthesizer, 2> kProductionAndOracle = {
    &synthesize, &test::oracle_synthesize};

class BothStrategies
    : public ::testing::TestWithParam<SynthesisOptions::Strategy> {};

TEST_P(BothStrategies, EasyRequirementUsesSingleReplicas) {
  // LRC 0.9 with 0.99 hosts: one host per task suffices.
  Fixture f = chain_fixture(0.9, 0.9, {{"h1", 0.99}, {"h2", 0.99}});
  const auto result =
      synthesize(*f.spec, *f.arch, f.bindings, strategy(GetParam()));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->replication_count, 2u);

  // The synthesized config must actually be valid.
  auto impl = impl::Implementation::Build(*f.spec, *f.arch, result->config);
  ASSERT_TRUE(impl.ok());
  EXPECT_TRUE(reliability::analyze(*impl)->reliable);
}

TEST_P(BothStrategies, TightRequirementForcesReplication) {
  // lambda_out needs >= 0.985; a single 0.99 host chain gives
  // 0.999*0.99*0.99 = 0.979 < 0.985, so at least one task must replicate.
  Fixture f = chain_fixture(0.9, 0.985, {{"h1", 0.99}, {"h2", 0.99}});
  const auto result =
      synthesize(*f.spec, *f.arch, f.bindings, strategy(GetParam()));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->replication_count, 3u);
  auto impl = impl::Implementation::Build(*f.spec, *f.arch, result->config);
  ASSERT_TRUE(impl.ok());
  EXPECT_TRUE(reliability::analyze(*impl)->reliable);
}

TEST_P(BothStrategies, ImpossibleRequirementIsUnsatisfiable) {
  // Even full replication gives lambda_out <= 0.999 * (1-0.01^2)^2 < 0.9999.
  Fixture f = chain_fixture(0.9, 0.9999, {{"h1", 0.99}, {"h2", 0.99}});
  const auto result =
      synthesize(*f.spec, *f.arch, f.bindings, strategy(GetParam()));
  EXPECT_EQ(result.status().code(), StatusCode::kUnsatisfiable);
}

INSTANTIATE_TEST_SUITE_P(Strategies, BothStrategies,
                         ::testing::Values(
                             SynthesisOptions::Strategy::kExhaustive,
                             SynthesisOptions::Strategy::kGreedy));

TEST(Synthesis, GreedyMatchesExhaustiveCostOnSmallSystems) {
  for (const double lrc : {0.9, 0.95, 0.975, 0.985}) {
    Fixture f = chain_fixture(lrc, lrc, {{"h1", 0.99}, {"h2", 0.98}});
    const auto exhaustive = synthesize(
        *f.spec, *f.arch, f.bindings,
        strategy(SynthesisOptions::Strategy::kExhaustive));
    const auto greedy =
        synthesize(*f.spec, *f.arch, f.bindings,
                   strategy(SynthesisOptions::Strategy::kGreedy));
    ASSERT_TRUE(exhaustive.ok()) << exhaustive.status();
    ASSERT_TRUE(greedy.ok()) << greedy.status();
    EXPECT_EQ(greedy->replication_count, exhaustive->replication_count)
        << "lrc=" << lrc;
    EXPECT_LE(greedy->candidates_evaluated,
              exhaustive->candidates_evaluated);
  }
}

TEST(Synthesis, RediscoversPaperScenario1) {
  // 3TS with LRC 0.98 on u1/u2: the baseline single mapping fails; the
  // synthesizer must find a replicated mapping, as the paper does by hand.
  plant::ThreeTankScenario scenario;
  scenario.lrc_controls = 0.98;
  auto system = plant::make_three_tank_system(scenario);
  ASSERT_TRUE(system.ok());

  const auto result = synthesize(
      *system->specification, *system->architecture,
      {{"s1", "sensor1"}, {"s2", "sensor2"}},
      strategy(SynthesisOptions::Strategy::kGreedy));
  ASSERT_TRUE(result.ok()) << result.status();
  auto impl = impl::Implementation::Build(*system->specification,
                                          *system->architecture,
                                          result->config);
  ASSERT_TRUE(impl.ok());
  const auto report = reliability::analyze(*impl);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->reliable);
  // More than one replica per task on average is NOT needed: only the
  // support of u1/u2 must be reinforced.
  EXPECT_LE(result->replication_count, 10u);
  EXPECT_GE(result->replication_count, 7u);
}

TEST(Synthesis, MaxReplicationBoundIsRespected) {
  Fixture f = chain_fixture(0.9, 0.985, {{"h1", 0.99}, {"h2", 0.99}});
  SynthesisOptions options = strategy(SynthesisOptions::Strategy::kExhaustive);
  options.max_replication_per_task = 1;  // forbids the needed replication
  const auto result = synthesize(*f.spec, *f.arch, f.bindings, options);
  EXPECT_EQ(result.status().code(), StatusCode::kUnsatisfiable);

  SynthesisOptions bad = strategy(SynthesisOptions::Strategy::kGreedy);
  bad.max_replication_per_task = 0;
  EXPECT_EQ(synthesize(*f.spec, *f.arch, f.bindings, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Synthesis, RejectsUnsafeCycle) {
  spec::SpecificationConfig config;
  config.communicators = {comm("c", 10, 0.5)};
  config.tasks = {task("t", {{"c", 0}}, {{"c", 1}})};
  auto spec = std::make_unique<spec::Specification>(
      test::build_spec(std::move(config)));
  arch::ArchitectureConfig arch_config;
  arch_config.hosts = {{"h1", 0.99}};
  auto arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  EXPECT_EQ(synthesize(*spec, *arch, {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Synthesis, SchedulabilityConstraintLimitsReplication) {
  // Tight WCET: a second replica of t1 on the same (only schedulable) slot
  // is impossible; the synthesizer must respect schedulability when asked.
  Fixture f = chain_fixture(0.9, 0.985, {{"h1", 0.99}, {"h2", 0.99}});
  // Rebuild arch with WCET that fills the whole LET window.
  arch::ArchitectureConfig arch_config;
  arch_config.hosts = {{"h1", 0.99}, {"h2", 0.99}};
  arch_config.sensors = {{"s", 0.999}};
  arch_config.default_wcet = 8;  // windows are [0,10) and [10,20), wctt 1
  arch_config.default_wctt = 1;
  f.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());

  SynthesisOptions with_sched =
      strategy(SynthesisOptions::Strategy::kExhaustive);
  with_sched.require_schedulable = true;
  const auto result = synthesize(*f.spec, *f.arch, f.bindings, with_sched);
  // Replication across two hosts is fine (each host runs one replica);
  // whatever is returned must be schedulable AND reliable.
  ASSERT_TRUE(result.ok()) << result.status();
  auto impl = impl::Implementation::Build(*f.spec, *f.arch, result->config);
  ASSERT_TRUE(impl.ok());
  EXPECT_TRUE(reliability::analyze(*impl)->reliable);
  EXPECT_TRUE(sched::analyze_schedulability(*impl)->schedulable);
}

TEST(Synthesis, AllowedHostsRestrictTheSearch) {
  // Three hosts, but h1 is off-limits (the adaptive layer's repair path):
  // no synthesized mapping may use it.
  Fixture f = chain_fixture(0.9, 0.9,
                            {{"h1", 0.99}, {"h2", 0.99}, {"h3", 0.99}});
  SynthesisOptions options = strategy(SynthesisOptions::Strategy::kGreedy);
  options.allowed_hosts = {1, 2};
  const auto result = synthesize(*f.spec, *f.arch, f.bindings, options);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const auto& mapping : result->config.task_mappings) {
    for (const std::string& host : mapping.hosts) {
      EXPECT_NE(host, "h1") << mapping.task;
    }
  }

  SynthesisOptions bad = strategy(SynthesisOptions::Strategy::kGreedy);
  bad.allowed_hosts = {7};
  EXPECT_EQ(synthesize(*f.spec, *f.arch, f.bindings, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Synthesis, RelaxedLrcsWaiveUnsatisfiableConstraints) {
  // 0.9999 on "out" is impossible on two 0.99 hosts; waiving it makes the
  // remaining constraints (mid at 0.9) trivially satisfiable.
  Fixture f = chain_fixture(0.9, 0.9999, {{"h1", 0.99}, {"h2", 0.99}});
  SynthesisOptions options = strategy(SynthesisOptions::Strategy::kGreedy);
  options.relaxed_lrcs = {*f.spec->find_communicator("out")};
  const auto result = synthesize(*f.spec, *f.arch, f.bindings, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->replication_count, 2u);
}

TEST(Synthesis, TaskRedundancyIsCarriedIntoTheConfig) {
  Fixture f = chain_fixture(0.9, 0.9, {{"h1", 0.99}, {"h2", 0.99}});
  SynthesisOptions options = strategy(SynthesisOptions::Strategy::kGreedy);
  options.task_redundancy = {{2, 0, 0}, {0, 0, 0}};
  const auto result = synthesize(*f.spec, *f.arch, f.bindings, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const spec::TaskId t1 = *f.spec->find_task("t1");
  auto impl = impl::Implementation::Build(*f.spec, *f.arch, result->config);
  ASSERT_TRUE(impl.ok());
  EXPECT_EQ(impl->reexecutions(t1), 2);

  SynthesisOptions bad = strategy(SynthesisOptions::Strategy::kGreedy);
  bad.task_redundancy = {{1, 0, 0}};  // wrong arity: spec has two tasks
  EXPECT_EQ(synthesize(*f.spec, *f.arch, f.bindings, bad).status().code(),
            StatusCode::kInvalidArgument);
}

bool same_config(const impl::ImplementationConfig& a,
                 const impl::ImplementationConfig& b) {
  if (a.task_mappings.size() != b.task_mappings.size()) return false;
  for (std::size_t t = 0; t < a.task_mappings.size(); ++t) {
    if (a.task_mappings[t].task != b.task_mappings[t].task) return false;
    if (a.task_mappings[t].hosts != b.task_mappings[t].hosts) return false;
  }
  return true;
}

TEST(Synthesis, PinnedHostsAreHonoredEvenWhenSuboptimal) {
  // Easy LRCs: the optimum is one replica per task (cost 2). Pinning t1
  // to {h1, h2} must be respected verbatim, not optimized away.
  Fixture f = chain_fixture(0.9, 0.9, {{"h1", 0.99}, {"h2", 0.99}});
  for (const Synthesizer run : kProductionAndOracle) {
    for (const auto strat : {SynthesisOptions::Strategy::kGreedy,
                             SynthesisOptions::Strategy::kExhaustive}) {
      SynthesisOptions options = strategy(strat);
      options.pinned_hosts = {{0, 1}, {}};
      const auto result = run(*f.spec, *f.arch, f.bindings, options);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(result->replication_count, 3u);
      bool found_t1 = false;
      for (const auto& mapping : result->config.task_mappings) {
        if (mapping.task != "t1") continue;
        found_t1 = true;
        EXPECT_EQ(mapping.hosts,
                  (std::vector<std::string>{"h1", "h2"}));
      }
      EXPECT_TRUE(found_t1);
    }
  }
}

TEST(Synthesis, PinnedHostsEnginesAgree) {
  // A pin plus a tight LRC on the free task: production and the oracle,
  // both strategies, must land on the same cost (and the exhaustive pair
  // on the same mapping).
  Fixture f = chain_fixture(0.9, 0.985,
                            {{"h1", 0.99}, {"h2", 0.99}, {"h3", 0.98}});
  std::vector<std::size_t> costs;
  std::vector<impl::ImplementationConfig> exhaustive_configs;
  for (const Synthesizer run : kProductionAndOracle) {
    for (const auto strat : {SynthesisOptions::Strategy::kGreedy,
                             SynthesisOptions::Strategy::kExhaustive}) {
      SynthesisOptions options = strategy(strat);
      options.pinned_hosts = {{}, {1, 2}};
      const auto result = run(*f.spec, *f.arch, f.bindings, options);
      ASSERT_TRUE(result.ok()) << result.status();
      costs.push_back(result->replication_count);
      if (strat == SynthesisOptions::Strategy::kExhaustive) {
        exhaustive_configs.push_back(result->config);
      }
    }
  }
  for (const std::size_t cost : costs) EXPECT_EQ(cost, costs[0]);
  ASSERT_EQ(exhaustive_configs.size(), 2u);
  ASSERT_EQ(exhaustive_configs[0].task_mappings.size(),
            exhaustive_configs[1].task_mappings.size());
  for (std::size_t i = 0; i < exhaustive_configs[0].task_mappings.size();
       ++i) {
    EXPECT_EQ(exhaustive_configs[0].task_mappings[i].task,
              exhaustive_configs[1].task_mappings[i].task);
    EXPECT_EQ(exhaustive_configs[0].task_mappings[i].hosts,
              exhaustive_configs[1].task_mappings[i].hosts);
  }
}

TEST(Synthesis, PinnedHostsValidation) {
  Fixture f = chain_fixture(0.9, 0.9, {{"h1", 0.99}, {"h2", 0.99}});

  SynthesisOptions wrong_size;
  wrong_size.pinned_hosts = {{0}};  // 1 entry for a 2-task spec
  const auto sized = synthesize(*f.spec, *f.arch, f.bindings, wrong_size);
  EXPECT_EQ(sized.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sized.status().message().find(
                "pinned_hosts must be empty or give one (possibly empty) "
                "host set per task"),
            std::string::npos)
      << sized.status();

  SynthesisOptions outside;
  outside.allowed_hosts = {0};
  outside.pinned_hosts = {{1}, {}};  // h2 is excluded by allowed_hosts
  const auto escaped = synthesize(*f.spec, *f.arch, f.bindings, outside);
  EXPECT_EQ(escaped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(escaped.status().message().find(
                "pinned_hosts references host 1 outside the usable "
                "(allowed) host set"),
            std::string::npos)
      << escaped.status();

  SynthesisOptions too_big;
  too_big.max_replication_per_task = 1;
  too_big.pinned_hosts = {{0, 1}, {}};
  const auto oversized = synthesize(*f.spec, *f.arch, f.bindings, too_big);
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(oversized.status().message().find(
                "a pinned_hosts set exceeds max_replication_per_task"),
            std::string::npos)
      << oversized.status();
}

TEST(FastEngine, MatchesReferenceOnRandomWorkloads) {
  // Production must agree with the reference oracle verdict-for-verdict:
  // same mapping for exhaustive, same mapping for greedy, same error code
  // when unsatisfiable.
  gen::WorkloadOptions workload_options;
  workload_options.max_layers = 2;  // keeps reference exhaustive tractable
  workload_options.max_tasks_per_layer = 2;
  workload_options.max_hosts = 3;
  workload_options.min_lrc = 0.4;
  workload_options.max_lrc = 0.95;  // tight enough to force replication
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Xoshiro256 rng(seed);
    const auto workload = gen::random_workload(rng, workload_options);
    ASSERT_TRUE(workload.ok()) << workload.status();
    std::vector<impl::ImplementationConfig::SensorBinding> bindings =
        workload->implementation_config.sensor_bindings;
    for (const auto s : {SynthesisOptions::Strategy::kExhaustive,
                         SynthesisOptions::Strategy::kGreedy}) {
      const SynthesisOptions options = strategy(s);
      const auto fast_result = synthesize(*workload->specification,
                                          *workload->architecture, bindings,
                                          options);
      const auto ref_result = test::oracle_synthesize(
          *workload->specification, *workload->architecture, bindings,
          options);
      ASSERT_EQ(fast_result.ok(), ref_result.ok())
          << "seed " << seed << ": fast " << fast_result.status()
          << " vs reference " << ref_result.status();
      if (!fast_result.ok()) {
        EXPECT_EQ(fast_result.status().code(), ref_result.status().code())
            << "seed " << seed;
        continue;
      }
      EXPECT_EQ(fast_result->replication_count,
                ref_result->replication_count)
          << "seed " << seed;
      EXPECT_TRUE(same_config(fast_result->config, ref_result->config))
          << "seed " << seed;
    }
  }
}

TEST(FastEngine, ParallelExhaustiveIsDeterministic) {
  // Same mapping and cost for every thread count, equal to the
  // single-threaded (and oracle) result.
  Fixture f = chain_fixture(0.95, 0.985,
                            {{"h1", 0.99}, {"h2", 0.98}, {"h3", 0.97}});
  const auto baseline = test::oracle_synthesize(
      *f.spec, *f.arch, f.bindings,
      strategy(SynthesisOptions::Strategy::kExhaustive));
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  for (const unsigned threads : {1u, 2u, 8u}) {
    SynthesisOptions options =
        strategy(SynthesisOptions::Strategy::kExhaustive);
    options.threads = threads;
    const auto result = synthesize(*f.spec, *f.arch, f.bindings, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->replication_count, baseline->replication_count)
        << threads << " threads";
    EXPECT_TRUE(same_config(result->config, baseline->config))
        << threads << " threads";
  }
}

TEST(FastEngine, ExhaustivePrunesMostOfTheSearchTree) {
  // On the paper's 3TS system the branch-and-bound fast path must reach
  // the same mapping with a fraction of the oracle's full builds — the
  // >= 10x bar BENCH_synthesis.json tracks.
  plant::ThreeTankScenario scenario;
  scenario.lrc_controls = 0.98;
  auto system = plant::make_three_tank_system(scenario);
  ASSERT_TRUE(system.ok());
  const std::vector<impl::ImplementationConfig::SensorBinding> bindings = {
      {"s1", "sensor1"}, {"s2", "sensor2"}};

  const SynthesisOptions options =
      strategy(SynthesisOptions::Strategy::kExhaustive);
  const auto fast_result = synthesize(*system->specification,
                                      *system->architecture, bindings,
                                      options);
  const auto ref_result = test::oracle_synthesize(
      *system->specification, *system->architecture, bindings, options);
  ASSERT_TRUE(fast_result.ok()) << fast_result.status();
  ASSERT_TRUE(ref_result.ok()) << ref_result.status();
  EXPECT_TRUE(same_config(fast_result->config, ref_result->config));
  EXPECT_GT(fast_result->subtrees_pruned, 0);
  // "Full analyze-equivalent evaluations": the oracle does one per
  // candidate; production only gates surviving leaves.
  EXPECT_GE(ref_result->full_evals, 10 * fast_result->full_evals);
}

TEST(FastEngine, ExhaustiveHostCountGuard) {
  // >= 2^21 subsets per task would hang; the limit is a clean error (and
  // the subset mask is 64-bit, so no UB on the way there). Greedy has no
  // such limit: 40 hosts are fine.
  std::vector<arch::Host> many_hosts;
  for (int h = 0; h < 40; ++h) {
    many_hosts.push_back({test::indexed("h", h), 0.99});
  }
  Fixture f = chain_fixture(0.9, 0.9, many_hosts);

  SynthesisOptions exhaustive =
      strategy(SynthesisOptions::Strategy::kExhaustive);
  const auto rejected = synthesize(*f.spec, *f.arch, f.bindings, exhaustive);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // Restricting to kMaxExhaustiveHosts usable hosts is accepted.
  SynthesisOptions capped = strategy(SynthesisOptions::Strategy::kExhaustive);
  for (arch::HostId h = 0; h < kMaxExhaustiveHosts; ++h) {
    capped.allowed_hosts.push_back(h);
  }
  capped.max_replication_per_task = 1;
  EXPECT_TRUE(synthesize(*f.spec, *f.arch, f.bindings, capped).ok());

  const auto greedy_result = synthesize(
      *f.spec, *f.arch, f.bindings,
      strategy(SynthesisOptions::Strategy::kGreedy));
  ASSERT_TRUE(greedy_result.ok()) << greedy_result.status();
  EXPECT_EQ(greedy_result->replication_count, 2u);
}

TEST(FastEngine, CountersAreConsistent) {
  Fixture f = chain_fixture(0.95, 0.985, {{"h1", 0.99}, {"h2", 0.98}});
  for (const auto s : {SynthesisOptions::Strategy::kExhaustive,
                       SynthesisOptions::Strategy::kGreedy}) {
    const auto result = synthesize(*f.spec, *f.arch, f.bindings, strategy(s));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->candidates_evaluated,
              result->full_evals + result->incremental_evals);
    EXPECT_GT(result->incremental_evals, 0);
  }
}

/// A generated workload whose architecture has no default WCET/WCTT (or
/// only one of them) and random holes in its metric table, so some
/// candidate mappings have no timing data.
struct HoleWorkload {
  gen::Workload workload;
  std::unique_ptr<arch::Architecture> arch;
};

HoleWorkload hole_workload(std::uint64_t seed) {
  gen::WorkloadOptions workload_options;
  workload_options.max_layers = 2;  // keeps the oracle's exhaustive tractable
  workload_options.max_tasks_per_layer = 2;
  workload_options.min_hosts = 2;
  workload_options.max_hosts = 3;
  workload_options.min_lrc = 0.4;
  workload_options.max_lrc = 0.95;
  Xoshiro256 rng(seed);
  HoleWorkload out{
      std::move(gen::random_workload(rng, workload_options)).value(),
      nullptr};
  arch::ArchitectureConfig config = out.workload.architecture_config;
  // Mostly neither default; sometimes one, so that a hole reads as a
  // missing WCTT only (or a missing WCET only).
  const std::uint64_t defaults = rng.next_below(4);
  config.default_wcet = std::nullopt;
  config.default_wctt = std::nullopt;
  if (defaults == 2) config.default_wcet = 1;
  if (defaults == 3) config.default_wctt = 1;
  for (const spec::Task& t : out.workload.specification->tasks()) {
    for (const arch::Host& h : config.hosts) {
      if (rng.bernoulli(0.2)) continue;  // a hole
      // WCTTs large enough that a hole-free mapping may overload the bus.
      config.metrics.push_back(
          {t.name, h.name, static_cast<spec::Time>(1 + rng.next_below(4)),
           static_cast<spec::Time>(1 + rng.next_below(6))});
    }
  }
  out.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(config))).value());
  return out;
}

TEST(SynthesisDifferential, TimingTableHolesMatchOracle) {
  // Timing-table holes, random pins and relaxed LRCs: production (both
  // strategies, 1/2/8 threads) returns exactly the oracle's status code
  // and message, and its mapping when it succeeds. A hole matters only in
  // a mapping that meets every LRC, and then before the bus and EDF
  // checks.
  int ok = 0;
  int not_found = 0;
  int unsatisfiable = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const HoleWorkload w = hole_workload(seed);
    const spec::Specification& spec = *w.workload.specification;
    Xoshiro256 rng(seed ^ 0x5eedULL);
    SynthesisOptions options;
    for (spec::CommId c = 0;
         c < static_cast<spec::CommId>(spec.communicators().size()); ++c) {
      if (rng.bernoulli(0.15)) options.relaxed_lrcs.push_back(c);
    }
    if (rng.bernoulli(0.5)) {
      const auto hosts = static_cast<arch::HostId>(w.arch->hosts().size());
      options.pinned_hosts.resize(spec.tasks().size());
      for (auto& pinned : options.pinned_hosts) {
        if (!rng.bernoulli(0.3)) continue;
        pinned.push_back(static_cast<arch::HostId>(
            rng.next_below(static_cast<std::uint64_t>(hosts))));
        if (rng.bernoulli(0.5)) {
          pinned.push_back(static_cast<arch::HostId>(
              rng.next_below(static_cast<std::uint64_t>(hosts))));
        }
      }
    }
    const auto& bindings = w.workload.implementation_config.sensor_bindings;
    for (const auto s : {SynthesisOptions::Strategy::kExhaustive,
                         SynthesisOptions::Strategy::kGreedy}) {
      options.strategy = s;
      const auto expected =
          test::oracle_synthesize(spec, *w.arch, bindings, options);
      const StatusCode code = expected.status().code();
      ok += code == StatusCode::kOk ? 1 : 0;
      not_found += code == StatusCode::kNotFound ? 1 : 0;
      unsatisfiable += code == StatusCode::kUnsatisfiable ? 1 : 0;
      EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kNotFound ||
                  code == StatusCode::kUnsatisfiable)
          << "seed " << seed << ": " << expected.status();
      for (const unsigned threads : {1u, 2u, 8u}) {
        options.threads = threads;
        const auto actual = synthesize(spec, *w.arch, bindings, options);
        const std::string where = "seed " + std::to_string(seed) +
                                  (s == SynthesisOptions::Strategy::kGreedy
                                       ? " greedy "
                                       : " exhaustive ") +
                                  std::to_string(threads) + " threads";
        ASSERT_EQ(actual.status().code(), expected.status().code())
            << where << ": " << actual.status() << " vs oracle "
            << expected.status();
        EXPECT_EQ(actual.status().message(), expected.status().message())
            << where;
        if (!actual.ok()) continue;
        EXPECT_EQ(actual->replication_count, expected->replication_count)
            << where;
        EXPECT_TRUE(same_config(actual->config, expected->config)) << where;
      }
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(not_found, 0);
  EXPECT_GT(unsatisfiable, 0);
  std::printf("outcomes: %d ok, %d not found, %d unsatisfiable\n", ok,
              not_found, unsatisfiable);
}

}  // namespace
}  // namespace lrt::synth
