#include "sim/runtime_core.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace lrt::sim::detail {

using arch::HostId;
using spec::CommId;
using spec::TaskId;
using spec::Time;
using spec::Value;

namespace {

// Draw-site tags: every stochastic decision is a pure function of
// (seed, site, time, entity ids[, attempt]) via keyed_bernoulli, so the
// outcome never depends on which instants a loop visits, or in what order.
constexpr std::uint64_t kSensorDraw = 1;
constexpr std::uint64_t kInvocationDraw = 2;
constexpr std::uint64_t kBroadcastDraw = 3;

/// Moves slot-tagged items into one flat array grouped by slot (stable, so
/// each slot keeps the items' construction order) and writes each slot's
/// end offset.
template <typename T>
void group_by_slot(std::vector<std::pair<std::uint32_t, T>>& tagged,
                   std::size_t slots, std::vector<T>& items,
                   std::vector<std::uint32_t>& ends) {
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  ends.assign(slots, 0);
  items.clear();
  items.reserve(tagged.size());
  for (auto& [slot, item] : tagged) {
    items.push_back(std::move(item));
    ++ends[slot];
  }
  for (std::size_t s = 1; s < slots; ++s) ends[s] += ends[s - 1];
}

}  // namespace

ActivationTable ActivationTable::Build(
    const spec::Specification& specification) {
  const Time hyperperiod = specification.hyperperiod();
  const auto num_comms =
      static_cast<CommId>(specification.communicators().size());
  const auto num_tasks = static_cast<TaskId>(specification.tasks().size());
  ActivationTable table;

  // Instants: the period boundary and every communicator access. Every
  // latch, release and write instant is an access of the communicator it
  // names, so nothing else can add an instant.
  table.at_.push_back(0);
  for (CommId c = 0; c < num_comms; ++c) {
    const Time period = specification.communicator(c).period;
    for (Time t = 0; t < hyperperiod; t += period) table.at_.push_back(t);
  }
  std::sort(table.at_.begin(), table.at_.end());
  table.at_.erase(std::unique(table.at_.begin(), table.at_.end()),
                  table.at_.end());
  const std::size_t slots = table.at_.size();
  const auto slot_of = [&table](Time rel) {
    const std::size_t slot = table.find(rel);
    assert(slot != kNoSlot && "instant off the activation table");
    return static_cast<std::uint32_t>(slot);
  };

  // Write instants w in (0, pi_S] per communicator, and the slot each
  // task output commits at (w = pi_S commits at the next boundary).
  std::vector<std::vector<Time>> writes(static_cast<std::size_t>(num_comms));
  table.first_output_.reserve(static_cast<std::size_t>(num_tasks));
  for (TaskId t = 0; t < num_tasks; ++t) {
    table.first_output_.push_back(
        static_cast<std::uint32_t>(table.commit_slot_.size()));
    for (const spec::PortRef& port : specification.task(t).outputs) {
      const Time write =
          specification.communicator(port.comm).period * port.instance;
      writes[static_cast<std::size_t>(port.comm)].push_back(write);
      table.commit_slot_.push_back(slot_of(write % hyperperiod));
    }
  }

  std::vector<std::pair<std::uint32_t, CommAccess>> accesses;
  for (CommId c = 0; c < num_comms; ++c) {
    const bool sensor = specification.is_input_communicator(c) &&
                        !specification.readers_of(c).empty();
    const Time period = specification.communicator(c).period;
    for (Time t = 0; t < hyperperiod; t += period) {
      CommAccess access{.comm = c,
                        .kind = sensor ? AccessKind::kSensor
                                       : AccessKind::kSample};
      Time due = std::numeric_limits<Time>::max();
      for (const Time write : writes[static_cast<std::size_t>(c)]) {
        if (write % hyperperiod == t) due = std::min(due, write);
      }
      if (due != std::numeric_limits<Time>::max()) {
        access.kind = AccessKind::kVote;
        access.due_from = due;
      }
      accesses.emplace_back(slot_of(t), access);
    }
  }
  group_by_slot(accesses, slots, table.accesses_, table.access_end_);

  std::vector<std::pair<std::uint32_t, InputLatch>> latches;
  std::vector<std::pair<std::uint32_t, TaskId>> releases;
  for (TaskId t = 0; t < num_tasks; ++t) {
    const spec::Task& task = specification.task(t);
    for (std::size_t j = 0; j < task.inputs.size(); ++j) {
      const spec::PortRef& port = task.inputs[j];
      // Read instants never reach pi_S (read < write <= pi_S).
      const Time instant =
          specification.communicator(port.comm).period * port.instance;
      latches.emplace_back(slot_of(instant),
                           InputLatch{.task = t,
                                      .input = static_cast<std::uint32_t>(j),
                                      .comm = port.comm});
    }
    releases.emplace_back(slot_of(specification.read_time(t)), t);
  }
  group_by_slot(latches, slots, table.latches_, table.latch_end_);
  group_by_slot(releases, slots, table.releases_, table.release_end_);
  return table;
}

std::size_t ActivationTable::find(Time rel) const {
  const auto it = std::lower_bound(at_.begin(), at_.end(), rel);
  if (it == at_.end() || *it != rel) return kNoSlot;
  return static_cast<std::size_t>(it - at_.begin());
}

RuntimeCore::RuntimeCore(std::span<const impl::Implementation> phases,
                         Environment& env, const SimulationOptions& options)
    : phases_(phases),
      spec_(&phases.front().specification()),
      arch_(phases.front().architecture()),
      env_(env),
      options_(options),
      monitor_(options.monitor),
      sink_(obs::resolve_sink(options.sink)),
      tracer_(sink_ != nullptr ? sink_->tracer() : nullptr) {}

Status RuntimeCore::init() {
  const std::size_t num_hosts = arch_.hosts().size();
  hyperperiod_ = spec_->hyperperiod();
  // The harmonic grid, derived once at Build time (gcd of the periods).
  step_ = spec_->base_period();
  // The horizon never moves again: a hot-swap may change the grid and the
  // period, but the run still ends where the initial workload said.
  duration_ = hyperperiod_ * options_.periods;

  // Initial replications: instance 0 carries the init value everywhere.
  values_.clear();
  values_.reserve(spec_->communicators().size());
  for (const auto& comm : spec_->communicators()) values_.push_back(comm.init);
  host_up_.assign(num_hosts, true);

  host_events_ = options_.faults.host_events;
  std::stable_sort(host_events_.begin(), host_events_.end(),
                   [](const FaultPlan::HostEvent& a,
                      const FaultPlan::HostEvent& b) {
                     return a.time < b.time;
                   });
  for (const auto& event : host_events_) {
    if (event.host < 0 || event.host >= static_cast<HostId>(num_hosts)) {
      return OutOfRangeError("host event references host " +
                             std::to_string(event.host));
    }
  }

  accumulators_.assign(spec_->communicators().size(), {});
  update_accums_.assign(spec_->communicators().size(), {});
  // With a monitor installed an unknown name may belong to a
  // specification a live update splices in later; its trace then starts
  // at the swap, and its actuator joins with it.
  for (const std::string& name : options_.record_values_for) {
    if (monitor_ == nullptr && !spec_->find_communicator(name)) {
      return NotFoundError("record_values_for references unknown "
                           "communicator '" + name + "'");
    }
    result_.value_traces.emplace(name, std::vector<Value>{});
  }
  for (const std::string& name : options_.actuator_comms) {
    if (monitor_ == nullptr && !spec_->find_communicator(name)) {
      return NotFoundError("actuator_comms references unknown "
                           "communicator '" + name + "'");
    }
  }

  if (options_.model_execution_time) {
    run_queues_.assign(num_hosts, {});
    LRT_RETURN_IF_ERROR(load_timing(*spec_));
  }
  derive_spec_tables();

  if (tracer_ != nullptr) period_start_us_ = tracer_->now_us();
  return Status::Ok();
}

Status RuntimeCore::load_timing(const spec::Specification& specification) {
  const std::size_t num_hosts = arch_.hosts().size();
  wcet_.assign(specification.tasks().size() * num_hosts, 1);
  wctt_.assign(specification.tasks().size() * num_hosts, 1);
  for (TaskId t = 0; t < static_cast<TaskId>(specification.tasks().size());
       ++t) {
    for (HostId h = 0; h < static_cast<HostId>(num_hosts); ++h) {
      const std::size_t index =
          static_cast<std::size_t>(t) * num_hosts + static_cast<std::size_t>(h);
      LRT_ASSIGN_OR_RETURN(wcet_[index],
                           arch_.wcet(specification.task(t).name, h));
      LRT_ASSIGN_OR_RETURN(wctt_[index],
                           arch_.wctt(specification.task(t).name, h));
    }
  }
  return Status::Ok();
}

void RuntimeCore::derive_spec_tables() {
  const std::size_t num_comms = spec_->communicators().size();
  table_ = ActivationTable::Build(*spec_);
  // Every outgoing write committed at or before a swap boundary (write
  // instants never exceed pi_S), so fresh buckets lose nothing.
  pending_.assign(table_.size(), {});
  // Latches start at bottom: every LET window is closed at a boundary, so
  // each input re-latches before its reader's next release.
  latched_.clear();
  for (const auto& task : spec_->tasks()) {
    latched_.emplace_back(task.inputs.size(), Value::bottom());
  }

  traces_.assign(num_comms, nullptr);
  for (const std::string& name : options_.record_values_for) {
    if (const auto comm = spec_->find_communicator(name)) {
      traces_[static_cast<std::size_t>(*comm)] = &result_.value_traces[name];
    }
  }
  is_actuator_.assign(num_comms, false);
  if (options_.actuator_comms.empty()) {
    for (CommId c = 0; c < static_cast<CommId>(num_comms); ++c) {
      is_actuator_[static_cast<std::size_t>(c)] =
          spec_->is_output_communicator(c) && !spec_->is_input_communicator(c);
    }
  } else {
    for (const std::string& name : options_.actuator_comms) {
      if (const auto comm = spec_->find_communicator(name)) {
        is_actuator_[static_cast<std::size_t>(*comm)] = true;
      }
    }
  }
}

Status RuntimeCore::tick(Time now) {
  apply_host_events(now);
  const std::size_t slot = table_.find((now - epoch_) % hyperperiod_);
  if (slot == ActivationTable::kNoSlot) return Status::Ok();
  const bool boundary = slot == 0;
  // One span per specification period: the dispatch granularity the
  // paper reasons about, and coarse enough to stay cheap when enabled.
  // Period indices restart at a hot-swap epoch (the incoming
  // specification's own period count).
  if (tracer_ != nullptr && boundary && now > epoch_) {
    const std::int64_t end_us = tracer_->now_us();
    tracer_->complete(
        "sim", "period", period_start_us_, end_us,
        {{"period",
          static_cast<double>((now - epoch_) / hyperperiod_ - 1)}});
    period_start_us_ = end_us;
  }
  // Remap point: mode switches happen at period boundaries only, so a
  // repair never tears a LET window apart.
  if (monitor_ != nullptr && boundary) {
    if (const impl::Implementation* next = monitor_->on_period_boundary(now)) {
      if (&next->specification() != spec_ ||
          &next->architecture() != &arch_) {
        return InvalidArgumentError(
            "monitor remap must target the running specification and "
            "architecture");
      }
      if (next != override_) {
        override_ = next;
        ++result_.remaps_installed;
        if (tracer_ != nullptr)
          tracer_->instant("sim", "remap", {{"t", static_cast<double>(now)}});
      }
    }
  }
  commit_updates(now, slot);
  record_and_actuate(now, slot);
  // Update point: a monitor may hot-swap the whole workload here. It runs
  // after the instant's commits and actuation (which belong to the closing
  // period of the outgoing specification) and before latching (which
  // belongs to the opening period of the incoming one), so no LET window
  // is ever torn apart and no committed update is lost. The swap instant
  // is slot 0 of the incoming table too.
  if (monitor_ != nullptr && boundary) {
    if (const impl::Implementation* next = monitor_->on_update_point(now)) {
      if (next != override_) LRT_RETURN_IF_ERROR(install_swap(now, next));
    }
  }
  latch_inputs(slot);
  execute_tasks(now, slot);
  return Status::Ok();
}

Status RuntimeCore::install_swap(Time now, const impl::Implementation* next) {
  if (&next->architecture() != &arch_) {
    return InvalidArgumentError(
        "live update must keep the running architecture");
  }
  const spec::Specification& from = *spec_;
  const spec::Specification& to = next->specification();
  const std::size_t num_comms = to.communicators().size();

  // In-flight timed jobs whose deadline crosses the boundary can only
  // exist when the outgoing mapping was unschedulable; they are dropped
  // (counted as misses) rather than remapped into the new task space.
  if (options_.model_execution_time) {
    for (auto& queue : run_queues_) {
      for (const ActiveJob& job : queue) {
        if (!job.silent) ++result_.deadline_misses;
      }
      queue.clear();
    }
    LRT_RETURN_IF_ERROR(load_timing(to));
  }

  // Communicator state survives by name: replications keep their committed
  // value, accumulators keep their statistics (dropped ones are stashed so
  // a rollback resumes them). A spliced communicator starts at its init
  // value; its first access instant is one period after the swap.
  std::vector<Value> values;
  std::vector<ReliabilityAccumulator> accumulators(num_comms);
  std::vector<ReliabilityAccumulator> update_accums(num_comms);
  values.reserve(num_comms);
  for (CommId c = 0; c < static_cast<CommId>(num_comms); ++c) {
    const auto cs = static_cast<std::size_t>(c);
    const spec::Communicator& comm = to.communicator(c);
    if (const auto old_id = from.find_communicator(comm.name)) {
      const auto os = static_cast<std::size_t>(*old_id);
      values.push_back(values_[os]);
      accumulators[cs] = accumulators_[os];
      update_accums[cs] = update_accums_[os];
    } else {
      values.push_back(comm.init);
      if (const auto stashed = retired_accums_.find(comm.name);
          stashed != retired_accums_.end()) {
        accumulators[cs] = stashed->second.first;
        update_accums[cs] = stashed->second.second;
        retired_accums_.erase(stashed);
      }
    }
  }
  for (CommId c = 0; c < static_cast<CommId>(from.communicators().size());
       ++c) {
    const std::string& name = from.communicator(c).name;
    if (!to.find_communicator(name).has_value()) {
      retired_accums_.insert_or_assign(
          name, std::make_pair(accumulators_[static_cast<std::size_t>(c)],
                               update_accums_[static_cast<std::size_t>(c)]));
    }
  }
  values_ = std::move(values);
  accumulators_ = std::move(accumulators);
  update_accums_ = std::move(update_accums);

  spec_ = &to;
  override_ = next;
  epoch_ = now;
  hyperperiod_ = to.hyperperiod();
  step_ = to.base_period();
  ++generation_;
  ++result_.spec_swaps;
  derive_spec_tables();
  if (tracer_ != nullptr) {
    tracer_->instant("sim", "spec_swap", {{"t", static_cast<double>(now)}});
  }
  return Status::Ok();
}

void RuntimeCore::advance_environment(Time from, Time to) {
  if (to <= from) return;
  if (env_.advance_granularity() ==
      Environment::AdvanceGranularity::kCoalesce) {
    env_.advance(from, to - from);
    return;
  }
  for (Time now = from; now < to; now += step_) {
    env_.advance(now, step_);
  }
}

SimulationResult RuntimeCore::finish() {
  const std::size_t num_comms = spec_->communicators().size();
  if (tracer_ != nullptr && options_.periods > 0) {
    tracer_->complete(
        "sim", "period", period_start_us_, tracer_->now_us(),
        {{"period", static_cast<double>(options_.periods - 1)}});
  }
  // Counters are flushed once per run, so the hot loop never pays for
  // metrics and the totals are identical for any tracing state — and,
  // being derived from the result alone, for any set of visited instants.
  if (sink_ != nullptr) {
    sink_->counter_add("sim.runs");
    sink_->counter_add("sim.periods", options_.periods);
    sink_->counter_add("sim.invocations", result_.invocations);
    sink_->counter_add("sim.invocation_failures",
                       result_.invocation_failures);
    sink_->counter_add("sim.updates", result_.committed_updates);
    sink_->counter_add("sim.updates_bottom", bottom_updates_);
    sink_->counter_add("sim.vote_divergences", result_.vote_divergences);
    sink_->counter_add("sim.deadline_misses", result_.deadline_misses);
    sink_->counter_add("sim.remaps_installed", result_.remaps_installed);
    sink_->counter_add("sim.spec_swaps", result_.spec_swaps);
  }

  result_.periods = options_.periods;
  result_.ticks = duration();
  result_.comm_stats.resize(num_comms);
  for (std::size_t c = 0; c < num_comms; ++c) {
    CommStats& stats = result_.comm_stats[c];
    stats.name = spec_->communicators()[c].name;
    stats.samples = accumulators_[c].samples();
    stats.reliable_samples = accumulators_[c].reliable();
    stats.limit_average = accumulators_[c].average();
    stats.updates = update_accums_[c].samples();
    stats.reliable_updates = update_accums_[c].reliable();
  }
  return std::move(result_);
}

void RuntimeCore::apply_host_events(Time now) {
  while (next_host_event_ < host_events_.size() &&
         host_events_[next_host_event_].time <= now) {
    const auto& event = host_events_[next_host_event_++];
    host_up_[static_cast<std::size_t>(event.host)] = event.up;
  }
}

void RuntimeCore::commit_updates(Time now, std::size_t slot) {
  std::vector<PendingWrite>& arrived = pending_[slot];
  const Time rel_now = now - epoch_;
  for (const CommAccess& access : table_.accesses(slot)) {
    const CommId c = access.comm;
    const auto cs = static_cast<std::size_t>(c);
    if (access.kind == AccessKind::kSensor) {
      // Sensor update (rule (a)): the environment writes identical values
      // to every replication of the sensor; a fail-silent sensor fault
      // makes the update unreliable.
      const arch::SensorId sensor_id = phase_at(now).sensor_for(c);
      const arch::Sensor& sensor = arch_.sensor(sensor_id);
      const bool failed =
          options_.faults.inject_sensor_faults &&
          keyed_bernoulli(1.0 - sensor.reliability, options_.faults.seed,
                          kSensorDraw, now, c);
      values_[cs] = failed ? Value::bottom()
                           : env_.read_sensor(spec_->communicator(c).name,
                                              now);
      ++result_.committed_updates;
      update_accums_[cs].record(!failed);
      if (failed) {
        ++bottom_updates_;
        if (tracer_ != nullptr)
          tracer_->instant("sim", "bottom",
                           {{"comm", static_cast<double>(c)},
                            {"t", static_cast<double>(now)}});
      }
      if (monitor_ != nullptr) {
        monitor_->on_sensor_update(now, c, sensor_id, !failed);
        monitor_->on_update(now, c, !failed, failed ? 0 : 1);
      }
      continue;
    }
    // Written communicator: its write instant is due from its first
    // occurrence on (instant w commits at w, w + pi_S, w + 2 pi_S, ...).
    if (access.kind != AccessKind::kVote || rel_now < access.due_from) {
      continue;
    }

    // Voting: every host received the same broadcast set (atomic network),
    // so the vote is computed once. Divergence among non-bottom candidates
    // is counted as a violation of the paper's determinism assumption.
    candidates_.clear();
    for (const PendingWrite& write : arrived) {
      if (write.comm != c) continue;
      // Fail-silence across the whole LET window: a replication on a host
      // that is down at commit time stays silent.
      if (!host_up_[static_cast<std::size_t>(write.source)]) continue;
      candidates_.push_back(write.value);
    }
    values_[cs] = vote(candidates_, options_.voting_policy,
                       &result_.vote_divergences);
    const bool reliable = !values_[cs].is_bottom();
    ++result_.committed_updates;
    update_accums_[cs].record(reliable);
    if (!reliable) {
      // A vote with no contributor: the paper's unreliable (bottom)
      // outcome — worth a point event even at full trace volume.
      ++bottom_updates_;
      if (tracer_ != nullptr)
        tracer_->instant("sim", "bottom",
                         {{"comm", static_cast<double>(c)},
                          {"t", static_cast<double>(now)},
                          {"contributors", 0.0}});
    }
    if (monitor_ != nullptr) {
      monitor_->on_update(now, c, reliable,
                          static_cast<int>(candidates_.size()));
    }
  }
  arrived.clear();
}

void RuntimeCore::record_and_actuate(Time now, std::size_t slot) {
  for (const CommAccess& access : table_.accesses(slot)) {
    const auto cs = static_cast<std::size_t>(access.comm);
    const Value& value = values_[cs];
    // The paper's Z_j(c): sampled at every access instant of c.
    accumulators_[cs].record(!value.is_bottom());
    if (traces_[cs] != nullptr) traces_[cs]->push_back(value);
    if (is_actuator_[cs]) {
      env_.write_actuator(spec_->communicator(access.comm).name, now, value);
    }
  }
}

void RuntimeCore::latch_inputs(std::size_t slot) {
  for (const InputLatch& latch : table_.latches(slot)) {
    latched_[static_cast<std::size_t>(latch.task)][latch.input] =
        values_[static_cast<std::size_t>(latch.comm)];
  }
}

void RuntimeCore::execute_tasks(Time now, std::size_t slot) {
  const Time period_start = now - table_.at(slot);
  const impl::Implementation& phase = phase_at(now);
  for (const TaskId t : table_.releases(slot)) {
    const spec::Task& task = spec_->task(t);

    // Input failure model (paper Section 2), identical for every
    // replication: they all latched the same row. A model-violating input
    // set means the invocation never starts (no processor time).
    inputs_.assign(latched_[static_cast<std::size_t>(t)].begin(),
                   latched_[static_cast<std::size_t>(t)].end());
    std::size_t unreliable = 0;
    for (std::size_t j = 0; j < inputs_.size(); ++j) {
      if (!inputs_[j].is_bottom()) continue;
      ++unreliable;
      if (task.model != spec::FailureModel::kSeries) {
        inputs_[j] = task.defaults[j];
      }
    }
    const bool inputs_bad =
        (task.model == spec::FailureModel::kSeries && unreliable > 0) ||
        (task.model == spec::FailureModel::kParallel &&
         unreliable == inputs_.size());

    for (const HostId h : phase.hosts_for(t)) {
      ++result_.invocations;
      const auto hs = static_cast<std::size_t>(h);

      // A downed host never starts the invocation.
      if (!host_up_[hs]) {
        ++result_.invocation_failures;
        if (monitor_ != nullptr) monitor_->on_invocation(now, t, h, false);
        continue;
      }
      if (inputs_bad) {
        // Not reported to the monitor: an input-model violation says
        // nothing about this host's health (the failure is upstream),
        // and counting it would let one dead sensor condemn every host.
        ++result_.invocation_failures;
        continue;
      }

      // Transient faults are independent per attempt; re-executions retry
      // on the same host within the LET.
      const int max_attempts = phase.reexecutions(t) + 1;
      int attempts_used = 1;
      bool failed = false;
      if (options_.faults.inject_invocation_faults) {
        failed = true;
        for (attempts_used = 0; failed && attempts_used < max_attempts;) {
          ++attempts_used;
          failed = keyed_bernoulli(1.0 - arch_.host(h).reliability,
                                   options_.faults.seed, kInvocationDraw, now,
                                   t, h, attempts_used);
        }
      }

      // Compute. A missing function yields type-correct zero outputs so
      // analysis-only specifications remain simulable.
      std::vector<Value> outputs;
      if (!failed) {
        if (task.function) {
          outputs = task.function(inputs_);
          assert(outputs.size() == task.outputs.size() &&
                 "task function produced wrong arity");
        } else {
          outputs.reserve(task.outputs.size());
          for (const spec::PortRef& port : task.outputs) {
            outputs.push_back(zero_value(spec_->communicator(port.comm).type));
          }
        }
        // Atomic broadcast: an unreliable network drops the whole
        // broadcast for every host.
        if (options_.broadcast_reliability < 1.0 &&
            keyed_bernoulli(1.0 - options_.broadcast_reliability,
                            options_.faults.seed, kBroadcastDraw, now, t, h)) {
          failed = true;
        }
      }
      if (failed) ++result_.invocation_failures;
      if (monitor_ != nullptr) monitor_->on_invocation(now, t, h, !failed);

      if (options_.model_execution_time) {
        // Enqueue on the host's EDF processor; failed attempts still burn
        // processor time (all attempts were executed before giving up).
        ActiveJob job;
        job.task = t;
        job.period_start = period_start;
        const std::size_t index =
            static_cast<std::size_t>(t) * arch_.hosts().size() + hs;
        // One full execution plus, per retry actually taken, one recovery
        // segment (full WCET without checkpoints) and checkpoint saves.
        const Time base = wcet_[index];
        const int k = phase.checkpoints(t);
        const Time overhead = phase.checkpoint_overhead(t);
        const Time segment = (base + k) / (k + 1);
        job.remaining = base + k * overhead +
                        (attempts_used - 1) *
                            (segment + (k > 0 ? overhead : 0));
        job.deadline = period_start + spec_->write_time(t) - wctt_[index];
        job.silent = failed;
        job.outputs = std::move(outputs);
        run_queues_[hs].push_back(std::move(job));
      } else if (!failed) {
        deliver_outputs(t, h, period_start, /*available_at=*/now, outputs);
      }
    }
  }
}

void RuntimeCore::deliver_outputs(TaskId task_id, HostId host,
                                  Time period_start, Time available_at,
                                  std::span<const Value> outputs) {
  const spec::Task& task = spec_->task(task_id);
  for (std::size_t k = 0; k < task.outputs.size(); ++k) {
    const spec::PortRef& port = task.outputs[k];
    const Time commit =
        period_start + spec_->communicator(port.comm).period * port.instance;
    if (available_at > commit) {
      // Late: the write instant passed before the broadcast arrived.
      ++result_.deadline_misses;
      continue;
    }
    pending_[table_.commit_slot(task_id, k)].push_back(
        {port.comm, host, outputs[k]});
  }
}

void RuntimeCore::advance_processors(Time from, Time to) {
  if (!options_.model_execution_time) return;
  for (HostId h = 0; h < static_cast<HostId>(run_queues_.size()); ++h) {
    const auto hs = static_cast<std::size_t>(h);
    if (!host_up_[hs]) continue;  // a downed host freezes (fail-silent)
    auto& queue = run_queues_[hs];
    Time clock = from;
    while (clock < to && !queue.empty()) {
      // Earliest-deadline job first (queues are short; linear scan).
      std::size_t best = 0;
      for (std::size_t j = 1; j < queue.size(); ++j) {
        if (queue[j].deadline < queue[best].deadline) best = j;
      }
      ActiveJob& job = queue[best];
      const Time slice = std::min(job.remaining, to - clock);
      job.remaining -= slice;
      clock += slice;
      if (job.remaining > 0) break;  // window exhausted mid-job
      // Completion at `clock`; broadcast arrives WCTT later.
      if (!job.silent) {
        const std::size_t index =
            static_cast<std::size_t>(job.task) * arch_.hosts().size() + hs;
        deliver_outputs(job.task, h, job.period_start, clock + wctt_[index],
                        job.outputs);
      }
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }
}

}  // namespace lrt::sim::detail
