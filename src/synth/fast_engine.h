// The synthesis engine's internals (see synthesis.h for the user-facing
// contract).
//
// The engine evaluates candidates with reliability::SrgEvaluator
// (incremental SRG re-propagation, undo-trail backtracking) instead of a
// per-candidate Implementation::Build + analyze, gates complete mappings
// with a memoized per-host EDF check, prunes subtrees by the admissible
// SRG ceiling (remaining tasks at full replication), and can explore
// top-level exhaustive subtrees in parallel while returning the mapping a
// sequential depth-first search returns. candidate_subsets() and
// assignment_config() define the search order and the result shape; the
// build-and-analyze test oracle (tests/synth_reference_oracle.h) uses
// them too.
#ifndef LRT_SYNTH_FAST_ENGINE_H_
#define LRT_SYNTH_FAST_ENGINE_H_

#include <vector>

#include "synth/synthesis.h"

namespace lrt::synth::internal {

/// All nonempty subsets of the usable hosts with at most `max_size`
/// elements, ordered by cardinality ascending, each cardinality class by
/// descending combined reliability. The exhaustive search order (and
/// therefore the deterministic-result contract) is defined by this list.
/// `usable.size()` must be at most kMaxExhaustiveHosts (enforced by
/// synthesize()); the mask is 64-bit so the enumeration itself is correct
/// up to 63 hosts.
[[nodiscard]] std::vector<std::vector<arch::HostId>> candidate_subsets(
    const arch::Architecture& arch, const std::vector<arch::HostId>& usable,
    int max_size);

/// The ImplementationConfig for a host-set-per-task assignment, with the
/// options' per-task time redundancy applied.
[[nodiscard]] impl::ImplementationConfig assignment_config(
    const spec::Specification& spec, const arch::Architecture& arch,
    const std::vector<impl::ImplementationConfig::SensorBinding>& bindings,
    const std::vector<std::vector<arch::HostId>>& assignment,
    const SynthesisOptions& options);

/// Branch-and-bound exhaustive search. Deterministic: returns the
/// minimal-cost valid mapping that is lexicographically least in
/// candidate_subsets order, for every options.threads value. When
/// schedulability is required and a (task, usable host) pair has no WCET
/// or WCTT, the search runs sequentially and fails with that lookup error
/// at the first depth-first leaf that meets every LRC and uses such a
/// pair.
/// `usable` must be ascending and duplicate-free.
[[nodiscard]] Result<SynthesisResult> fast_exhaustive(
    const spec::Specification& spec, const arch::Architecture& arch,
    const std::vector<impl::ImplementationConfig::SensorBinding>& bindings,
    const std::vector<arch::HostId>& usable, const SynthesisOptions& options);

/// Greedy repair loop over incremental SRG updates: start every free task
/// on the most reliable usable host, then add the best replica to a task
/// supporting the most-violated communicator until the mapping is valid.
/// A mapping that meets every LRC but uses a timing-table hole fails with
/// the lookup error.
[[nodiscard]] Result<SynthesisResult> fast_greedy(
    const spec::Specification& spec, const arch::Architecture& arch,
    const std::vector<impl::ImplementationConfig::SensorBinding>& bindings,
    const std::vector<arch::HostId>& usable, const SynthesisOptions& options);

}  // namespace lrt::synth::internal

#endif  // LRT_SYNTH_FAST_ENGINE_H_
