// Automatic replication-mapping synthesis.
//
// The paper derives its Section-4 mappings by hand ("the tasks t1 and t2
// are mapped to both hosts h1 and h2"); this module automates the step: it
// searches for an implementation I : tset -> 2^hset whose SRGs satisfy
// every LRC (Prop. 1) and which is schedulable, minimizing the total number
// of task replications (the space-redundancy cost).
//
// Two strategies, one engine (src/synth/fast_engine.{h,cpp}):
//  * kExhaustive — best-first branch-and-bound over per-task host subsets;
//    returns a provably minimal-cost valid mapping or kUnsatisfiable.
//    Worst-case exponential in |tset| * 2^|hset|, but the search prunes
//    any subtree whose SRG ceiling (remaining tasks at full replication —
//    admissible by the Section-3 induction's monotonicity) cannot meet an
//    unrelaxed LRC or beat the incumbent cost, and can explore top-level
//    subtrees in parallel. The result is deterministic for every thread
//    count: the lexicographically-least minimal-cost mapping in candidate
//    order, which a sequential depth-first search also returns.
//  * kGreedy — start every task on its most reliable feasible host, then
//    repeatedly add the best replica to a task supporting the most-violated
//    communicator until all LRCs hold. Fast and, on series-dominated
//    dataflows, usually optimal (bench_synthesis quantifies the gap).
//
// Both evaluate candidates with reliability::SrgEvaluator, which
// re-propagates SRGs only through the dirty downstream cone of a host-set
// change (no Implementation::Build, no per-candidate allocation); the
// schedulability check is a memoized last gate keyed on the per-host task
// set. The differential tests compare its results with a plain
// build-and-analyze search (tests/synth_reference_oracle.h).
//
// Timing-table holes: an architecture may lack the WCET or WCTT of some
// (task, host) pair (no metric entry and no default). With
// require_schedulable, a candidate that meets every unrelaxed LRC and maps
// a task onto such a pair fails the whole run with the kNotFound lookup
// error analyze_schedulability would give (tasks ascending, hosts
// ascending, WCET before WCTT); a candidate that misses an LRC is rejected
// without a lookup. Exhaustive reports the first such candidate in
// depth-first order, so on tables with holes it searches on one thread.
#ifndef LRT_SYNTH_SYNTHESIS_H_
#define LRT_SYNTH_SYNTHESIS_H_

#include <cstdint>
#include <vector>

#include "impl/implementation.h"
#include "obs/sink.h"
#include "support/status.h"

namespace lrt::synth {

/// Most usable hosts the exhaustive strategy accepts. The subset
/// enumeration uses 64-bit masks (correct up to 63 hosts), but 2^20
/// candidate host sets per task is already far beyond any practical
/// branch-and-bound run, so the limit is a clean kInvalidArgument instead
/// of an effectively-hung search. The greedy strategy has no such limit.
inline constexpr int kMaxExhaustiveHosts = 20;

struct SynthesisOptions {
  enum class Strategy { kExhaustive, kGreedy };
  Strategy strategy = Strategy::kGreedy;
  /// Worker threads (including the caller) for the exhaustive search; 0
  /// picks std::thread::hardware_concurrency(). The synthesized mapping is
  /// identical for every value. Ignored by the greedy strategy, and by an
  /// exhaustive search whose timing tables have holes (see the header
  /// comment), which runs on the calling thread.
  unsigned threads = 1;
  /// Also require sched::analyze_schedulability to pass.
  bool require_schedulable = true;
  /// Upper bound on |I(t)| per task.
  int max_replication_per_task = 1 << 20;
  /// Hosts the search may map tasks onto; empty = every architecture host.
  /// The adaptive layer passes the surviving hosts after a permanent loss.
  std::vector<arch::HostId> allowed_hosts;
  /// Communicators whose LRC is waived during validation (their verdicts
  /// are reported but do not reject a candidate) — the degraded-mode
  /// "shed" set of the adaptive layer's repair planner.
  std::vector<spec::CommId> relaxed_lrcs;
  /// Pinned host sets, indexed by TaskId: a non-empty inner vector fixes
  /// that task's replication set exactly (the search neither shrinks nor
  /// grows it); an empty inner vector leaves the task free. Empty outer
  /// vector = nothing pinned. Pinned hosts must lie inside allowed_hosts
  /// and respect max_replication_per_task. The live-update engine pins
  /// every task outside the dirty cone to its running mapping, so
  /// re-synthesis explores only the changed region of the workload.
  std::vector<std::vector<arch::HostId>> pinned_hosts;
  /// Per-task time redundancy applied verbatim to every candidate mapping.
  struct TaskRedundancy {
    int reexecutions = 0;
    int checkpoints = 0;
    spec::Time checkpoint_overhead = 0;
  };
  /// Indexed by TaskId; empty = no re-executions anywhere. Lets a repair
  /// re-spend the current implementation's re-execution budget on the
  /// replacement hosts.
  std::vector<TaskRedundancy> task_redundancy;
  /// Observability sink: per-run "synth.*" counters (full/incremental
  /// evals, prunes, gate cache hits, incumbent updates) and a "synth.run"
  /// span. Null falls back to the process-global sink (null = disabled).
  obs::Sink* sink = nullptr;
};

struct SynthesisResult {
  /// The synthesized mapping, ready for Implementation::Build.
  impl::ImplementationConfig config;
  /// Total replications of the winner.
  std::size_t replication_count = 0;
  /// Candidate mappings examined, fully or incrementally (search effort;
  /// full_evals + incremental_evals).
  std::int64_t candidates_evaluated = 0;
  /// Complete mappings whose final (schedulability) gate ran.
  std::int64_t full_evals = 0;
  /// Single-task host-set changes evaluated via SRG cone re-propagation.
  std::int64_t incremental_evals = 0;
  /// Subtrees discarded by the admissible SRG/cost bounds.
  std::int64_t subtrees_pruned = 0;
  /// Memoized schedulability gate: per-host task-set lookups served from
  /// cache vs computed by EDF simulation.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// Times the branch-and-bound incumbent improved (exhaustive only; 0 for
  /// the greedy strategy).
  std::int64_t incumbent_updates = 0;
};

/// Synthesizes a valid implementation. `sensor_bindings` fixes the sensor
/// for each input communicator (sensing hardware is not a degree of
/// freedom here). Returns kUnsatisfiable when no mapping within the
/// options' bounds meets all (unrelaxed) LRCs (e.g. the LRC exceeds what
/// full replication on the allowed hosts can deliver), kInvalidArgument
/// for out-of-range option ids, kFailedPrecondition for specifications
/// whose SRGs are undefined (unsafe cycles), and kNotFound when a mapping
/// that meets every LRC needs a missing WCET/WCTT (see the header
/// comment).
[[nodiscard]] Result<SynthesisResult> synthesize(
    const spec::Specification& spec, const arch::Architecture& arch,
    std::vector<impl::ImplementationConfig::SensorBinding> sensor_bindings,
    const SynthesisOptions& options = {});

/// The SRG ceiling of the architecture, one entry per communicator: the
/// SRGs of the full-replication mapping (every task on every host). By the
/// monotonicity of the Section-3 induction no mapping achieves a higher
/// lambda_c, so mu_c above the ceiling proves the LRC infeasible — the
/// feasibility probe behind lint rule LRT004 and a quick pre-check before
/// an expensive synthesis run. Bindings that cannot possibly belong to a
/// valid implementation (unknown communicator or sensor, written
/// communicator, duplicate) are dropped rather than rejected; read input
/// communicators left unbound get the most reliable sensor. Fails with
/// kFailedPrecondition when the SRGs are undefined (unsafe cycles) and
/// kInvalidArgument when the architecture has no hosts, or no sensors
/// while a read input communicator needs one.
[[nodiscard]] Result<std::vector<double>> max_achievable_srgs(
    const spec::Specification& spec, const arch::Architecture& arch,
    std::vector<impl::ImplementationConfig::SensorBinding> sensor_bindings =
        {});

}  // namespace lrt::synth

#endif  // LRT_SYNTH_SYNTHESIS_H_
