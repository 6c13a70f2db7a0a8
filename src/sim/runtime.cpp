#include "sim/runtime.h"

#include <algorithm>
#include <utility>

#include "sim/runtime_core.h"
#include "support/json.h"
#include "support/math_util.h"

namespace lrt::sim {
namespace {

using spec::Time;

/// The first instant of the grid anchored at `epoch` that is >= `time`:
/// where a scripted host event is first observed.
Time round_up_to_grid(Time time, Time step, Time epoch) {
  if (time <= epoch) return epoch;
  return epoch + ((time - epoch + step - 1) / step) * step;
}

/// The simulation loop: visits the activation-table instants of every
/// specification period, merged with the grid instants scripted host
/// events land on, and bridges each gap with one processor window and one
/// environment advance. Every other grid instant would run a no-op body,
/// which tests/sim_tick_oracle.h checks by visiting all of them.
Result<SimulationResult> run_activation_table(
    std::span<const impl::Implementation> phases, Environment& env,
    const SimulationOptions& options) {
  detail::RuntimeCore core(phases, env, options);
  LRT_RETURN_IF_ERROR(core.init());
  const Time duration = core.duration();
  const std::vector<FaultPlan::HostEvent>& host_events = core.host_events();
  std::size_t next_event = 0;  // first host event not yet applied
  std::int64_t generation = core.generation();
  // The next table instant is period_start + table.at(slot).
  Time period_start = 0;
  std::size_t slot = 0;
  std::int64_t activations = 0;
  std::int64_t visited = 0;
  // Grid instants are summed per generation ([grid_from, swap) on the
  // outgoing step), since a hot-swap may change the step.
  std::int64_t grid_instants = 0;
  Time grid_from = 0;

  Time at = 0;
  while (at < duration) {
    const detail::ActivationTable& table = core.activations();
    const bool on_table = at == period_start + table.at(slot);
    if (on_table) activations += table.activations(slot);
    const Time step = core.step();
    LRT_RETURN_IF_ERROR(core.tick(at));
    ++visited;
    for (; next_event < host_events.size() &&
           host_events[next_event].time <= at;
         ++next_event) {
      ++activations;
    }
    if (core.generation() != generation) {
      // Hot-swap at this boundary (always a table instant): it is
      // instant 0 of the incoming table, whose latch/execute half
      // already ran.
      generation = core.generation();
      grid_instants += (at - grid_from) / step;
      grid_from = at;
      period_start = at;
      slot = 0;
    }
    if (on_table) {
      if (++slot == core.activations().size()) {
        slot = 0;
        period_start += core.hyperperiod();
      }
    }
    Time next = std::min(period_start + core.activations().at(slot),
                         duration);
    if (next_event < host_events.size()) {
      next = std::min(next, round_up_to_grid(host_events[next_event].time,
                                             core.step(), core.epoch()));
    }
    core.advance_processors(at, next);
    core.advance_environment(at, next);
    at = next;
  }

  if (const obs::Sink* sink = core.sink(); sink != nullptr) {
    // Final grid segment: the horizon need not be a multiple of the
    // post-swap step, so the instant count rounds up.
    grid_instants += (duration - grid_from + core.step() - 1) / core.step();
    sink->counter_add("sim.events", activations);
    sink->counter_add("sim.ticks_skipped", grid_instants - visited);
  }
  return core.finish();
}

}  // namespace

std::string to_json(const SimulationResult& result) {
  JsonWriter json;
  json.begin_object();
  json.key("periods");
  json.value(result.periods);
  json.key("ticks");
  json.value(result.ticks);
  json.key("invocations");
  json.value(result.invocations);
  json.key("invocation_failures");
  json.value(result.invocation_failures);
  json.key("committed_updates");
  json.value(result.committed_updates);
  json.key("vote_divergences");
  json.value(result.vote_divergences);
  json.key("deadline_misses");
  json.value(result.deadline_misses);
  json.key("remaps_installed");
  json.value(result.remaps_installed);
  json.key("spec_swaps");
  json.value(result.spec_swaps);
  json.key("communicators");
  json.begin_array();
  for (const CommStats& stats : result.comm_stats) {
    const ConfidenceInterval ci = stats.update_rate_interval();
    json.begin_object();
    json.key("name");
    json.value(stats.name);
    json.key("limit_average");
    json.value(stats.limit_average);
    json.key("updates");
    json.value(stats.updates);
    json.key("reliable_updates");
    json.value(stats.reliable_updates);
    json.key("update_rate");
    json.value(stats.update_rate());
    json.key("ci_low");
    json.value(ci.low);
    json.key("ci_high");
    json.value(ci.high);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

const CommStats* SimulationResult::find(std::string_view name) const {
  for (const CommStats& stats : comm_stats) {
    if (stats.name == name) return &stats;
  }
  return nullptr;
}

Result<SimulationResult> simulate_time_dependent(
    std::span<const impl::Implementation> phases, Environment& env,
    const SimulationOptions& options) {
  if (phases.empty()) {
    return InvalidArgumentError("simulation needs >= 1 mapping phase");
  }
  for (const impl::Implementation& phase : phases) {
    if (&phase.specification() != &phases.front().specification() ||
        &phase.architecture() != &phases.front().architecture()) {
      return InvalidArgumentError(
          "all phases of a time-dependent implementation must share one "
          "specification and architecture");
    }
  }
  if (options.periods <= 0) {
    return InvalidArgumentError("simulation needs a positive period count");
  }
  if (!is_probability(options.broadcast_reliability) ||
      options.broadcast_reliability <= 0.0) {
    return InvalidArgumentError("broadcast reliability must be in (0, 1]");
  }
  return run_activation_table(phases, env, options);
}

Result<SimulationResult> simulate(const impl::Implementation& impl,
                                  Environment& env,
                                  const SimulationOptions& options) {
  return simulate_time_dependent({&impl, 1}, env, options);
}

}  // namespace lrt::sim
