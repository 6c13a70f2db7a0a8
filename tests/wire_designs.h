// The designs lrtd's cold path is pinned and fuzzed on: the paper's
// three-tank system and the 200-task generated shape of the lrtd cold
// benchmark, as the canonical documents a client sends.
#ifndef LRT_TESTS_WIRE_DESIGNS_H_
#define LRT_TESTS_WIRE_DESIGNS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "arch/arch_json.h"
#include "gen/workload.h"
#include "impl/impl_json.h"
#include "plant/three_tank_system.h"
#include "spec/spec_json.h"
#include "support/rng.h"

namespace lrt {

/// One design as lrtd receives it.
struct Design {
  std::string spec_json;
  std::string arch_json;
  std::string impl_json;
};

inline Design three_tank_design() {
  plant::ThreeTankScenario scenario;
  scenario.variant = plant::ThreeTankVariant::kReplicatedTasks;
  scenario.lrc_controls = 0.98;
  scenario.host_count = 3;
  auto system = plant::make_three_tank_system(scenario);
  EXPECT_TRUE(system.ok()) << system.status();
  return {spec::to_json(system->specification->to_config()),
          arch::to_json(system->architecture->to_config()),
          impl::to_json(system->implementation->to_config())};
}

/// The 200-task shape of the lrtd cold benchmark (10 layers x 20 tasks,
/// 4 hosts).
inline Design generated_design(std::uint64_t seed) {
  gen::WorkloadOptions options;
  options.min_layers = 10;
  options.max_layers = 10;
  options.min_tasks_per_layer = 20;
  options.max_tasks_per_layer = 20;
  options.min_hosts = 4;
  options.max_hosts = 4;
  Xoshiro256 rng(seed);
  auto workload = gen::random_workload(rng, options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return {spec::to_json(workload->specification->to_config()),
          arch::to_json(workload->architecture_config),
          impl::to_json(workload->implementation_config)};
}

/// A full analyze request frame for `design`.
inline std::string analyze_frame(const Design& design, std::string_view id) {
  return "{\"schema\":1,\"id\":\"" + std::string(id) +
         "\",\"verb\":\"analyze\",\"spec\":" + design.spec_json +
         ",\"arch\":" + design.arch_json +
         ",\"implementation\":" + design.impl_json + "}";
}

}  // namespace lrt

#endif  // LRT_TESTS_WIRE_DESIGNS_H_
