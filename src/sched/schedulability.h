// Schedulability analysis (paper Section 2, "Analysis").
//
// "The implementation I is schedulable if (all replications of) all tasks
// complete execution and transmission (of the outputs) between the read and
// the write time of the respective task."
//
// Model: each task replication (t, h) contributes one job per specification
// period with
//     release  = read_t
//     deadline = write_t - wtmap(t, h)   (execution AND broadcast must fit)
//     demand   = wemap(t, h)
// Hosts are single processors running preemptive EDF, which is optimal on
// one processor, so EDF simulation over one specification period decides
// feasibility exactly; the simulation also yields a concrete static cyclic
// schedule (the slices handed to the E-code generator). A processor-demand
// criterion is provided as an independent oracle for property tests.
//
// The broadcast bus is reliable and atomic (paper assumption). Its timing
// is modeled conservatively: every replication's WCTT is reserved inside
// the task's LET by the deadline shrink above, and total bus traffic per
// period must not exceed the period (utilization bound).
#ifndef LRT_SCHED_SCHEDULABILITY_H_
#define LRT_SCHED_SCHEDULABILITY_H_

#include <string>
#include <vector>

#include "impl/implementation.h"
#include "support/status.h"

namespace lrt::sched {

using arch::HostId;
using spec::TaskId;
using spec::Time;

/// One job: the work of task replication (task, host) within a period.
struct JobWindow {
  TaskId task = -1;
  HostId host = -1;
  Time release = 0;   ///< read_t
  Time deadline = 0;  ///< write_t - wctt
  Time wcet = 0;
  Time wctt = 0;
};

/// A contiguous execution slice of a task on a host.
struct ScheduleSlice {
  TaskId task = -1;
  Time start = 0;
  Time end = 0;
};

/// The synthesized schedule of one host over one specification period.
struct HostSchedule {
  HostId host = -1;
  bool feasible = false;
  std::vector<ScheduleSlice> slices;  ///< chronological, non-overlapping
  /// Empty when feasible; otherwise names the first deadline miss.
  std::string diagnostic;
};

struct SchedulabilityReport {
  bool schedulable = false;  ///< every host feasible and the bus fits
  std::vector<JobWindow> jobs;
  std::vector<HostSchedule> host_schedules;  ///< one per architecture host
  double bus_utilization = 0.0;  ///< total WCTT per period / period
  bool bus_feasible = false;
  [[nodiscard]] std::string summary() const;
};

/// JSON document for tooling: {schedulable, bus_utilization, hosts:
/// [{host, feasible, slices: [{task, start, end}]}]}.
[[nodiscard]] std::string to_json(const SchedulabilityReport& report,
                                  const impl::Implementation& impl);

/// Builds the job set and runs EDF per host. Fails only when a WCET/WCTT
/// lookup fails; an infeasible job set yields schedulable == false.
[[nodiscard]] Result<SchedulabilityReport> analyze_schedulability(
    const impl::Implementation& impl);

/// EDF feasibility of one host's job set, with no report, no diagnostics,
/// and no Implementation — the synthesis engine's memoized gate runs
/// this on jobs built from precomputed (task, host) tables. Shares the
/// simulation core with analyze_schedulability, so the verdict is
/// identical to the corresponding HostSchedule::feasible.
[[nodiscard]] bool edf_feasible(std::vector<JobWindow> jobs);

/// Independent feasibility oracle: the processor-demand criterion. For
/// synchronous jobs within one period, the set is EDF-feasible iff for
/// every interval [a, b] (a a release, b a deadline) the total demand of
/// jobs with release >= a and deadline <= b is at most b - a.
[[nodiscard]] bool demand_bound_feasible(const std::vector<JobWindow>& jobs);

/// One broadcast transmission occupying the bus.
struct BusSlice {
  TaskId task = -1;
  HostId host = -1;
  Time start = 0;
  Time end = 0;  ///< start + wctt
};

/// A constructive schedule for the shared broadcast bus: each task
/// replication transmits non-preemptively after its computed completion
/// (taken from the per-host EDF schedule) and before its write instant.
/// Scheduled with non-preemptive EDF — sufficient, not necessary, so
/// `feasible` may be false for job sets a cleverer bus schedule could fit;
/// the utilization bound in SchedulabilityReport stays the necessary
/// check.
struct BusSchedule {
  bool feasible = false;
  std::vector<BusSlice> slices;  ///< chronological, non-overlapping
  std::string diagnostic;        ///< first missed transmission deadline
};

/// Synthesizes the bus schedule on top of an existing schedulability
/// report (which must carry feasible host schedules).
[[nodiscard]] Result<BusSchedule> analyze_bus_schedule(
    const impl::Implementation& impl, const SchedulabilityReport& report);

}  // namespace lrt::sched

#endif  // LRT_SCHED_SCHEDULABILITY_H_
