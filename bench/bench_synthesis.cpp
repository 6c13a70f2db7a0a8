// Ablation: replication synthesis — greedy vs exhaustive, and the
// incremental branch-and-bound engine vs the build-and-analyze reference
// oracle (tests/synth_reference_oracle.h). The table compares cost (total
// replicas) and search effort on the 3TS task set across LRC targets;
// `--json <path>` additionally writes a machine-readable summary
// (BENCH_synthesis.json) consumed by the CI bench-smoke gate, where the
// `reference_*` keys describe the oracle.
#include <chrono>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "plant/three_tank_system.h"
#include "synth/synthesis.h"
#include "tests/synth_reference_oracle.h"

namespace {

using namespace lrt;

struct Measured {
  synth::SynthesisResult result;
  double wall_ms = 0.0;
};

/// Production synthesis or test::oracle_synthesize (same signature).
using Synthesizer = decltype(&synth::synthesize);

/// Runs synthesis on 3TS (LRC 0.98) with the given synthesizer (production
/// or the oracle), strategy and thread count, repeated to amortize noise,
/// and reports the mean wall time of one run.
Measured measure(Synthesizer run, unsigned threads, int repeats = 5,
                 synth::SynthesisOptions::Strategy strategy =
                     synth::SynthesisOptions::Strategy::kExhaustive) {
  plant::ThreeTankScenario scenario;
  scenario.lrc_controls = 0.98;
  auto system = plant::make_three_tank_system(scenario);
  synth::SynthesisOptions options;
  options.strategy = strategy;
  options.threads = threads;
  Measured out;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    auto result = run(*system->specification, *system->architecture,
                      {{"s1", "sensor1"}, {"s2", "sensor2"}}, options);
    if (result.ok()) out.result = *result;
  }
  const auto end = std::chrono::steady_clock::now();
  out.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count() /
      repeats;
  return out;
}

void print_table() {
  bench::header("Ablation", "replication synthesis: greedy vs exhaustive "
                            "(3TS task set)");
  std::printf("%-10s %-22s %-22s\n", "LRC(u)", "greedy (cost/evals)",
              "exhaustive (cost/evals)");
  for (const double lrc : {0.95, 0.97, 0.98, 0.9899}) {
    plant::ThreeTankScenario scenario;
    scenario.lrc_controls = lrc;
    auto system = plant::make_three_tank_system(scenario);
    std::string cells[2];
    int index = 0;
    for (const auto strategy :
         {synth::SynthesisOptions::Strategy::kGreedy,
          synth::SynthesisOptions::Strategy::kExhaustive}) {
      synth::SynthesisOptions options;
      options.strategy = strategy;
      const auto result = synth::synthesize(
          *system->specification, *system->architecture,
          {{"s1", "sensor1"}, {"s2", "sensor2"}}, options);
      cells[index++] =
          result.ok() ? std::to_string(result->replication_count) + " / " +
                            std::to_string(result->candidates_evaluated)
                      : std::string("unsat");
    }
    std::printf("%-10.4f %-22s %-22s\n", lrc, cells[0].c_str(),
                cells[1].c_str());
  }

  bench::header("Ablation", "incremental B&B vs build-and-analyze oracle "
                            "(exhaustive, 3TS, LRC 0.98)");
  const Measured ref = measure(&test::oracle_synthesize, 1);
  const Measured fast1 = measure(&synth::synthesize, 1);
  const Measured fast0 = measure(&synth::synthesize, 0);
  std::printf("%-22s %-10s %-12s %-12s %-10s\n", "engine", "cost",
              "full evals", "pruned", "wall(ms)");
  std::printf("%-22s %-10zu %-12lld %-12lld %-10.3f\n", "oracle",
              ref.result.replication_count,
              static_cast<long long>(ref.result.full_evals),
              static_cast<long long>(ref.result.subtrees_pruned),
              ref.wall_ms);
  std::printf("%-22s %-10zu %-12lld %-12lld %-10.3f\n", "fast (1 thread)",
              fast1.result.replication_count,
              static_cast<long long>(fast1.result.full_evals),
              static_cast<long long>(fast1.result.subtrees_pruned),
              fast1.wall_ms);
  std::printf("%-22s %-10zu %-12lld %-12lld %-10.3f\n", "fast (all threads)",
              fast0.result.replication_count,
              static_cast<long long>(fast0.result.full_evals),
              static_cast<long long>(fast0.result.subtrees_pruned),
              fast0.wall_ms);
  std::printf("\nshape: identical minimal cost; the engine gates a "
              "small fraction of the candidates (%.1fx fewer full evals, "
              "%.1fx wall-clock speedup single-threaded).\n",
              static_cast<double>(ref.result.full_evals) /
                  static_cast<double>(fast1.result.full_evals > 0
                                          ? fast1.result.full_evals
                                          : 1),
              ref.wall_ms / (fast1.wall_ms > 0 ? fast1.wall_ms : 1));
}

/// Machine-readable summary for the CI bench-smoke gate. One exhaustive
/// 3TS run takes ~0.03 ms, too short to time alone, so the gated wall
/// time is the best of 5 batches of kBatch runs, divided by kBatch.
bool write_json(const std::string& path) {
  constexpr int kBatch = 200;
  constexpr int kRounds = 5;
  const Measured ref = measure(&test::oracle_synthesize, 1);
  const Measured fast1 = measure(&synth::synthesize, 1);
  double best_ms = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    const double ms = measure(&synth::synthesize, 1, kBatch).wall_ms;
    if (r == 0 || ms < best_ms) best_ms = ms;
  }
  const Measured greedy = measure(&synth::synthesize, 1, 1,
                                  synth::SynthesisOptions::Strategy::kGreedy);
  bench::JsonWriter json;
  json.text("benchmark", "synthesis_exhaustive_3ts_lrc0.98");
  json.integer("hardware_concurrency",
               static_cast<long long>(std::thread::hardware_concurrency()));
  json.integer("reference_cost",
               static_cast<long long>(ref.result.replication_count));
  json.integer("fast_cost",
               static_cast<long long>(fast1.result.replication_count));
  json.integer("reference_full_evals", ref.result.full_evals);
  json.integer("fast_full_evals", fast1.result.full_evals);
  json.integer("fast_candidates_evaluated",
               fast1.result.candidates_evaluated);
  json.integer("fast_incremental_evals", fast1.result.incremental_evals);
  json.integer("fast_subtrees_pruned", fast1.result.subtrees_pruned);
  json.integer("fast_cache_hits", fast1.result.cache_hits);
  json.integer("fast_cache_misses", fast1.result.cache_misses);
  json.number("reference_wall_ms", ref.wall_ms);
  json.number("fast_wall_ms", fast1.wall_ms);
  json.number("fast_best_wall_ms", best_ms);
  json.number("speedup",
              ref.wall_ms / (fast1.wall_ms > 0 ? fast1.wall_ms : 1));
  json.number("full_eval_reduction",
              static_cast<double>(ref.result.full_evals) /
                  static_cast<double>(fast1.result.full_evals > 0
                                          ? fast1.result.full_evals
                                          : 1));
  json.integer("greedy_cost",
               static_cast<long long>(greedy.result.replication_count));
  json.integer("greedy_candidates_evaluated",
               greedy.result.candidates_evaluated);
  json.integer("greedy_full_evals", greedy.result.full_evals);
  json.integer("greedy_incremental_evals", greedy.result.incremental_evals);
  json.integer("greedy_cache_hits", greedy.result.cache_hits);
  json.integer("greedy_cache_misses", greedy.result.cache_misses);
  return json.write(path);
}

void BM_SynthesizeGreedy(benchmark::State& state) {
  plant::ThreeTankScenario scenario;
  scenario.lrc_controls = 0.98;
  auto system = plant::make_three_tank_system(scenario);
  for (auto _ : state) {
    synth::SynthesisOptions options;
    options.strategy = synth::SynthesisOptions::Strategy::kGreedy;
    auto result = synth::synthesize(
        *system->specification, *system->architecture,
        {{"s1", "sensor1"}, {"s2", "sensor2"}}, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SynthesizeGreedy);

void BM_SynthesizeExhaustive(benchmark::State& state) {
  plant::ThreeTankScenario scenario;
  scenario.lrc_controls = 0.98;
  auto system = plant::make_three_tank_system(scenario);
  for (auto _ : state) {
    synth::SynthesisOptions options;
    options.strategy = synth::SynthesisOptions::Strategy::kExhaustive;
    auto result = synth::synthesize(
        *system->specification, *system->architecture,
        {{"s1", "sensor1"}, {"s2", "sensor2"}}, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SynthesizeExhaustive);

void BM_SynthesizeExhaustiveOracle(benchmark::State& state) {
  plant::ThreeTankScenario scenario;
  scenario.lrc_controls = 0.98;
  auto system = plant::make_three_tank_system(scenario);
  for (auto _ : state) {
    synth::SynthesisOptions options;
    options.strategy = synth::SynthesisOptions::Strategy::kExhaustive;
    auto result = test::oracle_synthesize(
        *system->specification, *system->architecture,
        {{"s1", "sensor1"}, {"s2", "sensor2"}}, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SynthesizeExhaustiveOracle);

}  // namespace

LRT_BENCH_MAIN_JSON(print_table, write_json)
