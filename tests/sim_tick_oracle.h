// The every-grid-tick simulation loop, kept as the differential oracle of
// sim::simulate (ctest label `differential`).
//
// It drives the same detail::RuntimeCore as the production loop, but at
// every instant of the harmonic grid (gcd of the communicator periods,
// re-read after a hot-swap rebases it) and bridges one grid step at a
// time. The production loop visits only activation-table instants and the
// grid instants scripted host events round up to, and bridges whole idle
// gaps at once; agreement between the two checks that instant selection,
// host-event rounding and window bridging lose nothing. Whether the table
// itself lists the right work at each instant is checked separately
// against a brute-force grid scan (EventRuntimeDifferential.
// ActivationTableMatchesGridScan).
//
// Wall-clock time scales with the simulated horizon, so keep oracle runs
// short. Inputs are assumed to be valid (nonempty phases sharing one
// specification and architecture, positive periods); sim::simulate owns
// the argument checks.
#ifndef LRT_TESTS_SIM_TICK_ORACLE_H_
#define LRT_TESTS_SIM_TICK_ORACLE_H_

#include <algorithm>
#include <span>

#include "impl/implementation.h"
#include "sim/environment.h"
#include "sim/runtime.h"
#include "sim/runtime_core.h"
#include "support/status.h"

namespace lrt::sim::oracle {

/// simulate_time_dependent() visiting every grid instant.
inline Result<SimulationResult> simulate_every_tick(
    std::span<const impl::Implementation> phases, Environment& env,
    const SimulationOptions& options) {
  detail::RuntimeCore core(phases, env, options);
  LRT_RETURN_IF_ERROR(core.init());
  const spec::Time duration = core.duration();
  // The step is re-read every iteration: a live update (monitor hot-swap)
  // may rebase the grid mid-run. The horizon is frozen at init.
  for (spec::Time now = 0; now < duration; now += core.step()) {
    LRT_RETURN_IF_ERROR(core.tick(now));
    const spec::Time next = std::min(now + core.step(), duration);
    core.advance_processors(now, next);
    core.advance_environment(now, next);
  }
  return core.finish();
}

/// simulate() visiting every grid instant.
inline Result<SimulationResult> simulate_every_tick(
    const impl::Implementation& impl, Environment& env,
    const SimulationOptions& options) {
  return simulate_every_tick({&impl, 1}, env, options);
}

}  // namespace lrt::sim::oracle

#endif  // LRT_TESTS_SIM_TICK_ORACLE_H_
