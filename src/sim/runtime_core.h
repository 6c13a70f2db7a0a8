// The per-instant simulation machine and the activation table it
// dispatches from.
//
// RuntimeCore owns every piece of simulation state (replications, latches,
// pending broadcasts, EDF run queues, accumulators, RNG) and executes the
// canonical tick body — host events, period-boundary hooks, commits,
// recording, latching, task execution — as one deterministic function of
// (now, state). What the body does at an instant is compiled once per
// specification into an ActivationTable: the sorted distinct instants of
// one specification period pi_S at which some communicator is accessed or
// some task is released, each with its precomputed dispatch lists.
//
// The production loop (sim::simulate, runtime.cpp) visits only the table's
// instants plus the grid instants scripted host events land on, and
// bridges the gaps with one processor window and one environment advance.
// At any other grid instant the body is a no-op beyond that advancement
// (the activation-set argument of DESIGN.md section 5g), which the
// every-grid-tick test oracle (tests/sim_tick_oracle.h) checks by driving
// this same core at every grid instant.
//
// This header is an internal seam between the loop and its oracle, not
// public API; user code goes through sim::simulate.
#ifndef LRT_SIM_RUNTIME_CORE_H_
#define LRT_SIM_RUNTIME_CORE_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "impl/implementation.h"
#include "obs/sink.h"
#include "sim/environment.h"
#include "sim/fault_plan.h"
#include "sim/runtime.h"
#include "sim/trace.h"
#include "sim/voting.h"
#include "support/rng.h"
#include "support/status.h"

namespace lrt::sim::detail {

/// A broadcast output value awaiting its commit (write) instant.
struct PendingWrite {
  spec::CommId comm = -1;
  arch::HostId source = -1;
  spec::Value value;
};

/// What the body does with one communicator accessed at an instant.
enum class AccessKind : std::uint8_t {
  kSample,  ///< sampled (Z_j), recorded and actuated; no update lands
  kSensor,  ///< a sensor update (an input communicator with readers)
  kVote,    ///< a task-written communicator whose write instant is due
};

/// One communicator accessed at an activation instant.
struct CommAccess {
  spec::CommId comm = -1;
  AccessKind kind = AccessKind::kSample;
  /// kVote only: the first epoch-relative instant the write commits. A
  /// write instant w = pi_S shares slot 0 with the period boundary but
  /// has nothing to commit at the epoch itself.
  spec::Time due_from = 0;
  friend bool operator==(const CommAccess&, const CommAccess&) = default;
};

/// Input j of `task` latches communicator `comm` at this instant.
struct InputLatch {
  spec::TaskId task = -1;
  std::uint32_t input = 0;
  spec::CommId comm = -1;
  friend bool operator==(const InputLatch&, const InputLatch&) = default;
};

/// One specification period compiled into its activation instants: the
/// sorted distinct epoch-relative instants in [0, pi_S) at which a
/// communicator is accessed or a task is released (instant 0, the period
/// boundary, is always present). Each instant carries its communicator
/// accesses in CommId order, its input latches in (task, input) order,
/// and its task releases in TaskId order — the orders the body's monitor
/// callbacks and RNG draws follow. Built once per specification (at init
/// and at every hot-swap); the body never scans the whole specification.
class ActivationTable {
 public:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  [[nodiscard]] static ActivationTable Build(
      const spec::Specification& specification);

  /// Number of activation instants per specification period.
  [[nodiscard]] std::size_t size() const { return at_.size(); }
  /// Epoch-relative instant of `slot` (slot 0 is instant 0).
  [[nodiscard]] spec::Time at(std::size_t slot) const { return at_[slot]; }
  /// The slot of relative instant `rel` in [0, pi_S), or kNoSlot.
  [[nodiscard]] std::size_t find(spec::Time rel) const;

  [[nodiscard]] std::span<const CommAccess> accesses(std::size_t slot) const {
    return range(accesses_, access_end_, slot);
  }
  [[nodiscard]] std::span<const InputLatch> latches(std::size_t slot) const {
    return range(latches_, latch_end_, slot);
  }
  [[nodiscard]] std::span<const spec::TaskId> releases(
      std::size_t slot) const {
    return range(releases_, release_end_, slot);
  }
  /// Activations dispatched at `slot`: its communicator accesses, its task
  /// releases, and (slot 0) the period boundary. The sim.events unit.
  [[nodiscard]] std::int64_t activations(std::size_t slot) const {
    return static_cast<std::int64_t>(accesses(slot).size() +
                                     releases(slot).size()) +
           (slot == 0 ? 1 : 0);
  }
  /// The slot at which output `k` of `task` commits (its write instant
  /// modulo pi_S).
  [[nodiscard]] std::size_t commit_slot(spec::TaskId task,
                                        std::size_t k) const {
    return commit_slot_[first_output_[static_cast<std::size_t>(task)] + k];
  }

 private:
  template <typename T>
  static std::span<const T> range(const std::vector<T>& items,
                                  const std::vector<std::uint32_t>& ends,
                                  std::size_t slot) {
    const std::size_t begin = slot == 0 ? 0 : ends[slot - 1];
    return {items.data() + begin, ends[slot] - begin};
  }

  std::vector<spec::Time> at_;
  // Flat per-slot lists: slot s owns [end[s - 1], end[s]).
  std::vector<std::uint32_t> access_end_;
  std::vector<std::uint32_t> latch_end_;
  std::vector<std::uint32_t> release_end_;
  std::vector<CommAccess> accesses_;
  std::vector<InputLatch> latches_;
  std::vector<spec::TaskId> releases_;
  std::vector<std::uint32_t> commit_slot_;   // [first_output_[t] + k]
  std::vector<std::uint32_t> first_output_;  // by TaskId
};

class RuntimeCore {
 public:
  /// `phases` must be nonempty and share one specification/architecture;
  /// iteration k runs under phases[k mod N]. All references must outlive
  /// the core.
  RuntimeCore(std::span<const impl::Implementation> phases, Environment& env,
              const SimulationOptions& options);

  /// Validates the configuration and builds the initial state. Must be
  /// called (and succeed) before any other method.
  [[nodiscard]] Status init();

  /// Executes the canonical body for instant `now`: host events, the
  /// period-boundary tracer span and monitor hook, communicator commits,
  /// recording/actuation, input latching, and task execution, dispatched
  /// from the activation table (a grid instant absent from the table only
  /// applies host events). Instants must be visited in strictly
  /// increasing order. Fails only on a monitor remap or hot-swap
  /// targeting foreign models.
  [[nodiscard]] Status tick(spec::Time now);

  /// Timed execution mode: runs every host's preemptive-EDF processor
  /// over the window [from, to). The function is additive over window
  /// splits, so a loop may advance tick-by-tick or in one jump. No-op
  /// when model_execution_time is off.
  void advance_processors(spec::Time from, spec::Time to);

  /// Advances the environment over [from, to), honouring its granularity
  /// contract: one advance() call per base tick (kEveryTick) or a single
  /// call for the whole window (kCoalesce).
  void advance_environment(spec::Time from, spec::Time to);

  /// Emits the trailing trace span and the run counters, then assembles
  /// the result. Call exactly once, after the last tick.
  [[nodiscard]] SimulationResult finish();

  /// The harmonic grid step (gcd of the communicator periods) of the
  /// specification currently in force.
  [[nodiscard]] spec::Time step() const { return step_; }
  /// The specification period pi_S currently in force.
  [[nodiscard]] spec::Time hyperperiod() const { return hyperperiod_; }
  /// Total simulated ticks, frozen at init() from the initial
  /// specification (a later hot-swap never moves the horizon).
  [[nodiscard]] spec::Time duration() const { return duration_; }
  /// The specification currently in force (changes on a hot-swap).
  [[nodiscard]] const spec::Specification& spec() const { return *spec_; }
  /// The activation table of the specification currently in force; its
  /// instants are relative to epoch().
  [[nodiscard]] const ActivationTable& activations() const { return table_; }
  /// Instant the current specification took effect: its grid and period
  /// arithmetic are measured from here (0 until the first hot-swap).
  [[nodiscard]] spec::Time epoch() const { return epoch_; }
  /// Bumped on every hot-swap; a loop stepping through activations()
  /// restarts from the new table when it changes.
  [[nodiscard]] std::int64_t generation() const { return generation_; }
  /// Scripted host events, time-sorted (valid after init()).
  [[nodiscard]] const std::vector<FaultPlan::HostEvent>& host_events() const {
    return host_events_;
  }
  [[nodiscard]] const obs::Sink* sink() const { return sink_; }

 private:
  /// Installs `next` (possibly targeting a different specification) at
  /// boundary `now`: rebases the grid epoch, carries communicator state
  /// over by name, and re-derives every spec-shaped table. Fails only
  /// when `next` uses a foreign architecture or (in timed mode) a task
  /// without timing entries.
  [[nodiscard]] Status install_swap(spec::Time now,
                                    const impl::Implementation* next);
  /// Loads the WCET/WCTT of every (task, host) pair of `specification`
  /// (timed execution mode).
  [[nodiscard]] Status load_timing(const spec::Specification& specification);
  /// Derives the per-specification lookups (activation table, pending
  /// buckets, latches, recorded traces, actuators) from *spec_.
  void derive_spec_tables();
  void apply_host_events(spec::Time now);
  void commit_updates(spec::Time now, std::size_t slot);
  void record_and_actuate(spec::Time now, std::size_t slot);
  void latch_inputs(std::size_t slot);
  void execute_tasks(spec::Time now, std::size_t slot);
  void deliver_outputs(spec::TaskId task, arch::HostId host,
                       spec::Time period_start, spec::Time available_at,
                       std::span<const spec::Value> outputs);

  /// The implementation in force at absolute time `now`: a monitor remap
  /// or hot-swap once installed, otherwise the scheduled phase.
  [[nodiscard]] const impl::Implementation& phase_at(spec::Time now) const {
    if (override_ != nullptr) return *override_;
    const auto index = static_cast<std::size_t>(
        ((now - epoch_) / hyperperiod_) %
        static_cast<spec::Time>(phases_.size()));
    return phases_[index];
  }

  std::span<const impl::Implementation> phases_;
  /// Specification in force; reseated by install_swap().
  const spec::Specification* spec_;
  const arch::Architecture& arch_;
  Environment& env_;
  const SimulationOptions& options_;
  RuntimeMonitor* monitor_;
  /// Resolved observability sink (null = disabled) and its tracer.
  const obs::Sink* sink_;
  obs::Tracer* tracer_;
  std::int64_t period_start_us_ = 0;
  /// Updates that committed bottom (no contributor / failed sensor).
  std::int64_t bottom_updates_ = 0;
  /// Mapping installed by the monitor; supersedes phases_ once set.
  const impl::Implementation* override_ = nullptr;

  spec::Time step_ = 1;
  spec::Time hyperperiod_ = 1;
  /// Instant the current specification took effect (0 until a swap); all
  /// grid/period arithmetic is relative to it.
  spec::Time epoch_ = 0;
  /// Simulated horizon, frozen at init() from the initial specification.
  spec::Time duration_ = 0;
  /// Incremented per hot-swap.
  std::int64_t generation_ = 0;
  ActivationTable table_;

  // values_[comm]: the committed value of every communicator replication.
  // The reliable atomic broadcast delivers every update to every host, so
  // all hosts' replications are one row.
  std::vector<spec::Value> values_;
  std::vector<bool> host_up_;
  std::size_t next_host_event_ = 0;
  std::vector<FaultPlan::HostEvent> host_events_;

  // latched_[task][input j]: every replication of a task latches the same
  // row, so one copy per task serves all of its hosts.
  std::vector<std::vector<spec::Value>> latched_;

  // pending_[slot]: broadcast values committing at the table instant
  // `slot`. Every write commits within one period of its release, so a
  // slot never holds writes for two different absolute instants.
  std::vector<std::vector<PendingWrite>> pending_;
  // Per-instant scratch, reused so the body does not allocate.
  std::vector<spec::Value> candidates_;
  std::vector<spec::Value> inputs_;

  // Timed execution mode: one preemptive-EDF processor per host.
  struct ActiveJob {
    spec::TaskId task = -1;
    spec::Time deadline = 0;  ///< absolute completion deadline (EDF key)
    spec::Time remaining = 0;  ///< WCET budget left
    spec::Time period_start = 0;
    bool silent = false;  ///< all attempts failed: consumes time only
    std::vector<spec::Value> outputs;
  };
  std::vector<std::vector<ActiveJob>> run_queues_;  // per host
  std::vector<spec::Time> wcet_;                    // [task * H + host]
  std::vector<spec::Time> wctt_;

  SimulationResult result_;
  std::vector<ReliabilityAccumulator> accumulators_;   // access instants
  std::vector<ReliabilityAccumulator> update_accums_;  // update events
  /// Accumulators of communicators a hot-swap dropped, stashed by name so
  /// a rollback (or a later re-splice) resumes their statistics instead
  /// of restarting the Wilson interval from zero.
  std::map<std::string,
           std::pair<ReliabilityAccumulator, ReliabilityAccumulator>>
      retired_accums_;
  /// Per communicator: its value trace in result_.value_traces, or null
  /// when it is not recorded.
  std::vector<std::vector<spec::Value>*> traces_;
  std::vector<bool> is_actuator_;
};

}  // namespace lrt::sim::detail

#endif  // LRT_SIM_RUNTIME_CORE_H_
