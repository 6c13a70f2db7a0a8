// Unit tests for the specification graph: instance-level structure, and
// the dependency facts Specification::Build caches — communicator-cycle
// detection (memory-freedom), cycle safety, and the reliability
// (topological) order.
#include <gtest/gtest.h>

#include <algorithm>

#include "spec/spec_graph.h"
#include "tests/test_util.h"

namespace lrt::spec {
namespace {

using test::comm;
using test::task;

TEST(SpecGraph, ChainIsMemoryFree) {
  const Specification spec =
      test::build_spec(test::chain_spec_config(/*tasks=*/3));
  const SpecificationGraph graph(spec);
  EXPECT_TRUE(graph.is_memory_free());
  EXPECT_TRUE(graph.is_cycle_safe());
  EXPECT_TRUE(spec.cycles().empty());
}

TEST(SpecGraph, SelfLoopDetected) {
  // Task reads and writes the same communicator: the paper's Section 3
  // pathological example.
  SpecificationConfig config;
  config.communicators = {comm("c", 2)};
  config.tasks = {task("t", {{"c", 0}}, {{"c", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  const SpecificationGraph graph(spec);
  EXPECT_FALSE(graph.is_memory_free());
  EXPECT_FALSE(graph.is_cycle_safe());  // model 1 task in the cycle
  ASSERT_EQ(spec.cycles().size(), 1u);
  EXPECT_EQ(spec.cycles()[0].size(), 1u);
}

TEST(SpecGraph, SelfLoopWithIndependentModelIsCycleSafe) {
  SpecificationConfig config;
  config.communicators = {comm("c", 2)};
  config.tasks = {
      task("t", {{"c", 0}}, {{"c", 1}}, FailureModel::kIndependent)};
  const Specification spec = test::build_spec(std::move(config));
  const SpecificationGraph graph(spec);
  EXPECT_FALSE(graph.is_memory_free());
  EXPECT_TRUE(graph.is_cycle_safe());
}

TEST(SpecGraph, TwoTaskCycleDetected) {
  // t1: a -> b, t2: b -> a.
  SpecificationConfig config;
  config.communicators = {comm("a", 2), comm("b", 2)};
  config.tasks = {task("t1", {{"a", 0}}, {{"b", 1}}),
                  task("t2", {{"b", 0}}, {{"a", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  const SpecificationGraph graph(spec);
  EXPECT_FALSE(graph.is_memory_free());
  EXPECT_FALSE(graph.is_cycle_safe());
  ASSERT_EQ(spec.cycles().size(), 1u);
  EXPECT_EQ(spec.cycles()[0].size(), 2u);
}

TEST(SpecGraph, OneIndependentTaskMakesTwoTaskCycleSafe) {
  SpecificationConfig config;
  config.communicators = {comm("a", 2), comm("b", 2)};
  config.tasks = {
      task("t1", {{"a", 0}}, {{"b", 1}}, FailureModel::kIndependent),
      task("t2", {{"b", 0}}, {{"a", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  const SpecificationGraph graph(spec);
  EXPECT_FALSE(graph.is_memory_free());
  EXPECT_TRUE(graph.is_cycle_safe());
}

TEST(SpecGraph, IndependentTaskOutsideCycleDoesNotHelp) {
  // Cycle a <-> b (both series) plus a model-3 task elsewhere.
  SpecificationConfig config;
  config.communicators = {comm("a", 2), comm("b", 2), comm("c", 2)};
  config.tasks = {
      task("t1", {{"a", 0}}, {{"b", 1}}),
      task("t2", {{"b", 0}}, {{"a", 1}}),
      task("t3", {{"a", 0}}, {{"c", 1}}, FailureModel::kIndependent)};
  const Specification spec = test::build_spec(std::move(config));
  const SpecificationGraph graph(spec);
  EXPECT_FALSE(graph.is_cycle_safe());
}

TEST(SpecGraph, ReliabilityOrderRespectsDependencies) {
  const Specification spec =
      test::build_spec(test::chain_spec_config(/*tasks=*/4));
  const std::vector<CommId>& order = spec.reliability_order();
  ASSERT_EQ(order.size(), spec.communicators().size());
  // c0 must come before c1, c1 before c2, ...
  std::vector<std::size_t> position(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    position[static_cast<std::size_t>(order[i])] = i;
  }
  for (std::size_t c = 0; c + 1 < order.size(); ++c) {
    EXPECT_LT(position[c], position[c + 1])
        << "c" << c << " must precede c" << c + 1;
  }
}

TEST(SpecGraph, ReliabilityOrderFailsOnUnsafeCycle) {
  SpecificationConfig config;
  config.communicators = {comm("a", 2), comm("b", 2)};
  config.tasks = {task("t1", {{"a", 0}}, {{"b", 1}}),
                  task("t2", {{"b", 0}}, {{"a", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  EXPECT_TRUE(spec.reliability_order().empty());
  EXPECT_EQ(spec.require_cycle_safe("the SRG induction").code(),
            StatusCode::kFailedPrecondition);
}

TEST(SpecGraph, ReliabilityOrderSucceedsOnSafeCycle) {
  SpecificationConfig config;
  config.communicators = {comm("a", 2), comm("b", 2)};
  config.tasks = {
      task("t1", {{"a", 0}}, {{"b", 1}}, FailureModel::kIndependent),
      task("t2", {{"b", 0}}, {{"a", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  EXPECT_EQ(spec.reliability_order().size(), 2u);
  EXPECT_TRUE(spec.require_cycle_safe("the SRG induction").ok());
}

TEST(SpecGraph, InstanceLevelVertexCount) {
  const Specification spec =
      test::build_spec(test::chain_spec_config(/*tasks=*/2, /*period=*/10));
  // pi_S = 10 * ceil(20/10) = 20; per comm (period 10): instances 0..2.
  const SpecificationGraph graph(spec);
  // 3 comms * 3 instances + 2 tasks.
  EXPECT_EQ(graph.vertices().size(), 3u * 3u + 2u);
  EXPECT_GT(graph.edge_count(), 0u);
}

TEST(SpecGraph, InstanceLevelEdgesForFig1Task) {
  SpecificationConfig config;
  config.communicators = {comm("c1", 2), comm("c2", 3), comm("c3", 4),
                          comm("c4", 2)};
  config.tasks = {task("t", {{"c1", 1}, {"c2", 1}}, {{"c3", 2}, {"c4", 5}})};
  const Specification spec = test::build_spec(std::move(config));
  const SpecificationGraph graph(spec);

  const int tv = graph.task_vertex(0);
  const int in1 = graph.comm_instance_vertex(*spec.find_communicator("c1"), 1);
  const auto& in1_edges = graph.edges()[static_cast<std::size_t>(in1)];
  EXPECT_NE(std::find(in1_edges.begin(), in1_edges.end(), tv),
            in1_edges.end());

  const int out = graph.comm_instance_vertex(*spec.find_communicator("c3"), 2);
  const auto& t_edges = graph.edges()[static_cast<std::size_t>(tv)];
  EXPECT_NE(std::find(t_edges.begin(), t_edges.end(), out), t_edges.end());
}

TEST(SpecGraph, PersistenceEdgesSkipWrittenInstances) {
  SpecificationConfig config;
  config.communicators = {comm("in", 4), comm("out", 4)};
  config.tasks = {task("t", {{"in", 0}}, {{"out", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  const SpecificationGraph graph(spec);
  const CommId out = *spec.find_communicator("out");
  // (out, 0) -> (out, 1) must NOT exist: instance 1 is written by t.
  const int v0 = graph.comm_instance_vertex(out, 0);
  const int v1 = graph.comm_instance_vertex(out, 1);
  const auto& edges0 = graph.edges()[static_cast<std::size_t>(v0)];
  EXPECT_EQ(std::find(edges0.begin(), edges0.end(), v1), edges0.end());
  // The input communicator persists 0 -> 1 (nothing writes it).
  const CommId in = *spec.find_communicator("in");
  const int i0 = graph.comm_instance_vertex(in, 0);
  const int i1 = graph.comm_instance_vertex(in, 1);
  const auto& in_edges = graph.edges()[static_cast<std::size_t>(i0)];
  EXPECT_NE(std::find(in_edges.begin(), in_edges.end(), i1), in_edges.end());
}

TEST(SpecGraph, DotExportContainsNodesAndEdges) {
  const Specification spec =
      test::build_spec(test::chain_spec_config(/*tasks=*/1));
  const SpecificationGraph graph(spec);
  const std::string dot = graph.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"task1\" [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("\"c0@0\""), std::string::npos);
  EXPECT_NE(dot.find("\"c0@0\" -> \"task1\""), std::string::npos);
  EXPECT_NE(dot.find("\"task1\" -> \"c1@1\""), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
}

TEST(SpecGraph, DescribeCyclesMentionsCommunicators) {
  SpecificationConfig config;
  config.communicators = {comm("alpha", 2)};
  config.tasks = {task("t", {{"alpha", 0}}, {{"alpha", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  EXPECT_NE(spec.describe_cycles().find("alpha"), std::string::npos);
}

TEST(SpecGraph, DescribeCyclesMemoryFreeText) {
  const Specification spec =
      test::build_spec(test::chain_spec_config(/*tasks=*/2));
  EXPECT_EQ(spec.describe_cycles(), "memory-free (no communicator cycles)");
}

TEST(SpecGraph, DescribeCyclesSelfLoopFormat) {
  SpecificationConfig config;
  config.communicators = {comm("c", 2)};
  config.tasks = {task("t", {{"c", 0}}, {{"c", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  EXPECT_EQ(spec.describe_cycles(), "cycle 0: {c}\n");
}

TEST(SpecGraph, InterlockingCyclesMergeIntoOneComponent) {
  // d -> b -> d and d -> c -> d share d, so Tarjan reports one strongly
  // connected component, not two separate cycles. Rule 3 still holds:
  // every communicator has a single writer.
  SpecificationConfig config;
  config.communicators = {comm("b", 2), comm("c", 2), comm("d", 2)};
  config.tasks = {task("t1", {{"d", 0}}, {{"b", 1}}),
                  task("t2", {{"d", 0}}, {{"c", 1}}),
                  task("t3", {{"b", 0}, {"c", 0}}, {{"d", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  const SpecificationGraph graph(spec);
  EXPECT_FALSE(graph.is_memory_free());
  ASSERT_EQ(spec.cycles().size(), 1u);
  EXPECT_EQ(spec.cycles()[0].size(), 3u);
  const std::string text = spec.describe_cycles();
  EXPECT_NE(text.find("b"), std::string::npos);
  EXPECT_NE(text.find("c"), std::string::npos);
  EXPECT_NE(text.find("d"), std::string::npos);
  EXPECT_EQ(text.find("cycle 1"), std::string::npos);
}

TEST(SpecGraph, DisjointCyclesReportedSeparately) {
  SpecificationConfig config;
  config.communicators = {comm("a", 2), comm("b", 2), comm("c", 2),
                          comm("d", 2)};
  config.tasks = {task("t1", {{"a", 0}}, {{"b", 1}}),
                  task("t2", {{"b", 0}}, {{"a", 1}}),
                  task("t3", {{"c", 0}}, {{"d", 1}}),
                  task("t4", {{"d", 0}}, {{"c", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  EXPECT_EQ(spec.cycles().size(), 2u);
  const std::string text = spec.describe_cycles();
  EXPECT_NE(text.find("cycle 0"), std::string::npos);
  EXPECT_NE(text.find("cycle 1"), std::string::npos);
}

TEST(SpecGraph, CycleBrokenByIndependentTaskStillDescribed) {
  // An independent-model task makes the cycle *safe* (the SRG induction
  // is well-founded) but the specification still has memory, and
  // describe_cycles() must keep reporting the cycle for diagnostics.
  SpecificationConfig config;
  config.communicators = {comm("a", 2), comm("b", 2)};
  config.tasks = {
      task("t1", {{"a", 0}}, {{"b", 1}}, FailureModel::kIndependent),
      task("t2", {{"b", 0}}, {{"a", 1}})};
  const Specification spec = test::build_spec(std::move(config));
  const SpecificationGraph graph(spec);
  EXPECT_TRUE(graph.is_cycle_safe());
  EXPECT_FALSE(graph.is_memory_free());
  const std::string text = spec.describe_cycles();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("b"), std::string::npos);
}

}  // namespace
}  // namespace lrt::spec
