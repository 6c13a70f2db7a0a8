// Unit tests for src/sched: LET job windows, EDF feasibility, schedule
// synthesis, bus utilization, and the demand-bound oracle (including a
// randomized agreement property between the two feasibility criteria).
#include <gtest/gtest.h>

#include "plant/three_tank_system.h"
#include "sched/schedulability.h"
#include "support/rng.h"
#include "tests/test_util.h"

namespace lrt::sched {
namespace {

using test::comm;
using test::task;

/// One task on one host, with adjustable WCET/WCTT.
test::System one_task_system(spec::Time period, std::int64_t in_instance,
                             std::int64_t out_instance, spec::Time wcet,
                             spec::Time wctt) {
  spec::SpecificationConfig config;
  config.communicators = {comm("in", period), comm("out", period)};
  config.tasks = {task("t", {{"in", in_instance}}, {{"out", out_instance}})};
  auto system = test::single_host_system(std::move(config));
  // Rebuild architecture with the requested metrics.
  arch::ArchitectureConfig arch_config;
  arch_config.hosts = {{"h0", 0.9}};
  arch_config.sensors = {{"sens_in", 0.95}};
  arch_config.default_wcet = wcet;
  arch_config.default_wctt = wctt;
  system.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings = {{"t", {"h0"}}};
  impl_config.sensor_bindings = {{"in", "sens_in"}};
  system.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*system.spec, *system.arch,
                                            std::move(impl_config)))
          .value());
  return system;
}

TEST(Schedulability, SingleTaskFits) {
  // LET window [0, 10); wcet 5 + wctt 2 => deadline 8.
  auto system = one_task_system(10, 0, 1, /*wcet=*/5, /*wctt=*/2);
  const auto report = analyze_schedulability(*system.impl);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->schedulable);
  ASSERT_EQ(report->jobs.size(), 1u);
  EXPECT_EQ(report->jobs[0].release, 0);
  EXPECT_EQ(report->jobs[0].deadline, 8);
  ASSERT_EQ(report->host_schedules.size(), 1u);
  ASSERT_EQ(report->host_schedules[0].slices.size(), 1u);
  EXPECT_EQ(report->host_schedules[0].slices[0].start, 0);
  EXPECT_EQ(report->host_schedules[0].slices[0].end, 5);
}

TEST(Schedulability, WcetExceedingWindowFails) {
  auto system = one_task_system(10, 0, 1, /*wcet=*/9, /*wctt=*/2);
  const auto report = analyze_schedulability(*system.impl);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->schedulable);
  EXPECT_FALSE(report->host_schedules[0].feasible);
  EXPECT_NE(report->host_schedules[0].diagnostic.find("exceeds LET window"),
            std::string::npos);
}

TEST(Schedulability, TransmissionTimeShrinksDeadline) {
  // Window [0, 10): wcet 8 + wctt 1 fits exactly (deadline 9).
  auto fits = one_task_system(10, 0, 1, 8, 1);
  EXPECT_TRUE(analyze_schedulability(*fits.impl)->schedulable);
  // wctt 3 leaves only 7 < 8.
  auto tight = one_task_system(10, 0, 1, 8, 3);
  EXPECT_FALSE(analyze_schedulability(*tight.impl)->schedulable);
}

/// Two tasks sharing one host with staggered LETs.
test::System two_task_system(spec::Time wcet) {
  spec::SpecificationConfig config;
  config.communicators = {comm("in", 10), comm("a", 10), comm("b", 10)};
  config.tasks = {task("t1", {{"in", 0}}, {{"a", 1}}),
                  task("t2", {{"in", 0}}, {{"b", 1}})};
  auto system = test::single_host_system(std::move(config));
  arch::ArchitectureConfig arch_config;
  arch_config.hosts = {{"h0", 0.9}};
  arch_config.sensors = {{"sens_in", 0.95}};
  arch_config.default_wcet = wcet;
  arch_config.default_wctt = 1;
  system.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings = {{"t1", {"h0"}}, {"t2", {"h0"}}};
  impl_config.sensor_bindings = {{"in", "sens_in"}};
  system.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*system.spec, *system.arch,
                                            std::move(impl_config)))
          .value());
  return system;
}

TEST(Schedulability, ContentionOnSharedHost) {
  // Both windows are [0, 9); two tasks of wcet 4 fit (8 <= 9), wcet 5 do
  // not (10 > 9).
  auto fits = two_task_system(4);
  EXPECT_TRUE(analyze_schedulability(*fits.impl)->schedulable);
  auto overloaded = two_task_system(5);
  const auto report = analyze_schedulability(*overloaded.impl);
  EXPECT_FALSE(report->schedulable);
  EXPECT_NE(report->host_schedules[0].diagnostic.find("deadline"),
            std::string::npos);
}

TEST(Schedulability, ReplicationAddsJobsPerHost) {
  spec::SpecificationConfig config;
  config.communicators = {comm("in", 10), comm("out", 10)};
  config.tasks = {task("t", {{"in", 0}}, {{"out", 1}})};
  auto spec = std::make_unique<spec::Specification>(
      test::build_spec(std::move(config)));
  arch::ArchitectureConfig arch_config;
  arch_config.hosts = {{"h1", 0.9}, {"h2", 0.9}};
  arch_config.sensors = {{"s", 0.9}};
  auto arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings = {{"t", {"h1", "h2"}}};
  impl_config.sensor_bindings = {{"in", "s"}};
  auto impl = impl::Implementation::Build(*spec, *arch,
                                          std::move(impl_config));
  ASSERT_TRUE(impl.ok());
  const auto report = analyze_schedulability(*impl);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->jobs.size(), 2u);
  EXPECT_TRUE(report->schedulable);
}

TEST(Schedulability, ThreeTankSystemIsSchedulable) {
  auto system = plant::make_three_tank_system({});
  ASSERT_TRUE(system.ok());
  const auto report = analyze_schedulability(*system->implementation);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->schedulable) << report->summary();
  EXPECT_LT(report->bus_utilization, 1.0);
}

TEST(Schedulability, PreemptionProducesSplitSlices) {
  // t_long: window [0, 20), wcet 10. t_short: window [5, 9), wcet 2.
  // EDF preempts t_long at t=5 (t_short's deadline 9 < 18).
  spec::SpecificationConfig config;
  config.communicators = {comm("in", 5), comm("a", 20), comm("b", 10)};
  config.tasks = {task("t_long", {{"in", 0}}, {{"a", 1}}),
                  task("t_short", {{"in", 1}}, {{"b", 1}})};
  auto system = test::single_host_system(std::move(config));
  arch::ArchitectureConfig arch_config;
  arch_config.hosts = {{"h0", 0.9}};
  arch_config.sensors = {{"sens_in", 0.95}};
  arch_config.metrics = {{"t_long", "h0", 10, 2}, {"t_short", "h0", 2, 1}};
  system.arch = std::make_unique<arch::Architecture>(
      std::move(arch::Architecture::Build(std::move(arch_config))).value());
  impl::ImplementationConfig impl_config;
  impl_config.task_mappings = {{"t_long", {"h0"}}, {"t_short", {"h0"}}};
  impl_config.sensor_bindings = {{"in", "sens_in"}};
  system.impl = std::make_unique<impl::Implementation>(
      std::move(impl::Implementation::Build(*system.spec, *system.arch,
                                            std::move(impl_config)))
          .value());

  const auto report = analyze_schedulability(*system.impl);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->schedulable) << report->summary();
  const auto& slices = report->host_schedules[0].slices;
  ASSERT_EQ(slices.size(), 3u);  // t_long [0,5), t_short [5,7), t_long [7,12)
  EXPECT_EQ(system.spec->task(slices[0].task).name, "t_long");
  EXPECT_EQ(system.spec->task(slices[1].task).name, "t_short");
  EXPECT_EQ(system.spec->task(slices[2].task).name, "t_long");
  EXPECT_EQ(slices[1].start, 5);
  EXPECT_EQ(slices[1].end, 7);
}

TEST(DemandBound, MatchesEdfOnHandCases) {
  std::vector<JobWindow> feasible = {{0, 0, 0, 8, 4, 1},
                                     {1, 0, 0, 9, 4, 1}};
  EXPECT_TRUE(demand_bound_feasible(feasible));
  std::vector<JobWindow> infeasible = {{0, 0, 0, 8, 5, 1},
                                       {1, 0, 0, 9, 5, 1}};
  EXPECT_FALSE(demand_bound_feasible(infeasible));
}

TEST(DemandBound, SeparateHostsDoNotInterfere) {
  std::vector<JobWindow> jobs = {{0, 0, 0, 8, 8, 1},
                                 {1, 1, 0, 8, 8, 1}};
  EXPECT_TRUE(demand_bound_feasible(jobs));
}

// Property: EDF simulation and the processor-demand criterion agree on
// random synchronous job sets.
class EdfVsDemandBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdfVsDemandBound, Agree) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    // Random job set on one host within a period of 40.
    const int n = 1 + static_cast<int>(rng.next_below(5));
    spec::SpecificationConfig config;
    config.communicators = {comm("in", 40)};
    arch::ArchitectureConfig arch_config;
    arch_config.hosts = {{"h0", 0.9}};
    arch_config.sensors = {{"sens_in", 0.95}};
    impl::ImplementationConfig impl_config;
    impl_config.sensor_bindings = {{"in", "sens_in"}};
    for (int i = 0; i < n; ++i) {
      const std::string out = test::indexed("o", i);
      // Output instance in [1, 4] on a period-10 comm => write in [10, 40].
      const auto out_inst =
          1 + static_cast<std::int64_t>(rng.next_below(4));
      config.communicators.push_back(comm(out, 10));
      config.tasks.push_back(
          task(test::indexed("t", i), {{"in", 0}}, {{out, out_inst}}));
      const auto wcet = 1 + static_cast<spec::Time>(rng.next_below(8));
      arch_config.metrics.push_back(
          {test::indexed("t", i), "h0", wcet, 1});
      impl_config.task_mappings.push_back(
          {test::indexed("t", i), {"h0"}});
    }
    auto spec_result = spec::Specification::Build(std::move(config));
    ASSERT_TRUE(spec_result.ok()) << spec_result.status();
    auto arch_result = arch::Architecture::Build(std::move(arch_config));
    ASSERT_TRUE(arch_result.ok());
    auto impl_result = impl::Implementation::Build(
        *spec_result, *arch_result, std::move(impl_config));
    ASSERT_TRUE(impl_result.ok());

    const auto report = analyze_schedulability(*impl_result);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->host_schedules[0].feasible,
              demand_bound_feasible(report->jobs))
        << "trial " << trial << ": EDF and demand bound disagree\n"
        << report->summary();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfVsDemandBound,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Schedulability, SummaryMentionsVerdict) {
  auto system = one_task_system(10, 0, 1, 5, 2);
  const auto report = analyze_schedulability(*system.impl);
  EXPECT_NE(report->summary().find("SCHEDULABLE"), std::string::npos);
}

}  // namespace
}  // namespace lrt::sched
