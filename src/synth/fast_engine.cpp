#include "synth/fast_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "reliability/incremental.h"
#include "sched/schedulability.h"
#include "support/hash.h"
#include "support/thread_pool.h"

namespace lrt::synth::internal {
namespace {

using arch::HostId;
using spec::CommId;
using spec::TaskId;
using spec::Time;

constexpr std::int64_t kNoIncumbent = std::numeric_limits<std::int64_t>::max();

struct WordsHash {
  std::size_t operator()(const std::vector<std::uint64_t>& words) const {
    return static_cast<std::size_t>(hash_words(words));
  }
};

/// One mapping's schedulability footprint, plus the gate's per-thread
/// scratch: per-usable-host task bitsets ([u * words + w]), the summed
/// bus demand (WCTTs), cache counters and lookup buffers (no allocation
/// on the hit path in steady state).
struct SchedLoad {
  std::vector<std::uint64_t> bits;
  Time bus = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::vector<std::uint64_t> key_buf;
  std::vector<sched::JobWindow> job_buf;
};

/// The schedulability side of the search: per-(task, usable host) job
/// templates — every candidate mapping's job set is a selection from this
/// table, so it is computed once per search — and memoized per-host EDF
/// feasibility. The verdict of one host's EDF simulation depends only on
/// the set of tasks mapped onto it, so it is cached per (usable host, task
/// bitset). Thread-safe: one mutex-guarded map per usable host; on a miss
/// the simulation runs outside the lock (duplicate computation between
/// racing threads is benign — same verdict).
///
/// A (task, usable host) pair without a WCET or WCTT (no metric entry and
/// no default) is a hole. It rejects nothing by itself: admits() returns
/// the lookup error only for a mapping that places the task on that host,
/// exactly as sched::analyze_schedulability would.
class SchedGate {
 public:
  SchedGate(const spec::Specification& spec, const arch::Architecture& arch,
            const std::vector<HostId>& usable,
            const impl::Implementation& ceiling)
      : words_((spec.tasks().size() + 63) / 64),
        num_usable_(usable.size()),
        hyperperiod_(spec.hyperperiod()),
        jobs_(spec.tasks().size() * usable.size()),
        wctt_(jobs_.size(), 0),
        shards_(usable.size()) {
    for (TaskId t = 0; t < static_cast<TaskId>(spec.tasks().size()); ++t) {
      const spec::Task& task = spec.task(t);
      for (std::size_t u = 0; u < usable.size(); ++u) {
        const std::size_t slot = static_cast<std::size_t>(t) * num_usable_ + u;
        // analyze_schedulability's lookup order: WCET before WCTT.
        const Result<Time> wcet = arch.wcet(task.name, usable[u]);
        const Result<Time> wctt = arch.wctt(task.name, usable[u]);
        if (!wcet.ok() || !wctt.ok()) {
          holes_.emplace_back(slot, wcet.ok() ? wctt.status() : wcet.status());
          continue;
        }
        sched::JobWindow& job = jobs_[slot];
        job.task = t;
        job.host = usable[u];
        job.release = spec.read_time(t);
        job.deadline = spec.write_time(t) - *wctt;
        job.wcet = ceiling.reserved_demand(t, *wcet);
        job.wctt = *wctt;
        wctt_[slot] = *wctt;
      }
    }
  }

  /// True when some (task, usable host) pair lacks a WCET or WCTT.
  [[nodiscard]] bool has_holes() const { return !holes_.empty(); }

  /// The footprint of the empty mapping.
  [[nodiscard]] SchedLoad empty_load() const {
    SchedLoad load;
    load.bits.assign(num_usable_ * words_, 0);
    return load;
  }

  /// Maps task `t` onto usable host `u` in `load` (and back).
  void add(SchedLoad& load, TaskId t, std::size_t u) const {
    const auto ts = static_cast<std::size_t>(t);
    load.bits[u * words_ + ts / 64] |= std::uint64_t{1} << (ts % 64);
    load.bus += wctt_[ts * num_usable_ + u];
  }
  void remove(SchedLoad& load, TaskId t, std::size_t u) const {
    const auto ts = static_cast<std::size_t>(t);
    load.bits[u * words_ + ts / 64] &= ~(std::uint64_t{1} << (ts % 64));
    load.bus -= wctt_[ts * num_usable_ + u];
  }

  /// analyze_schedulability's verdict on the mapping in `load`: the lookup
  /// error of its first hole (TaskId ascending, hosts ascending), else
  /// whether the bus demand fits the hyperperiod and every host is
  /// EDF-feasible.
  Result<bool> admits(SchedLoad& load) {
    for (const auto& [slot, status] : holes_) {
      const std::size_t t = slot / num_usable_;
      const std::size_t u = slot % num_usable_;
      if ((load.bits[u * words_ + t / 64] >> (t % 64)) & 1u) return status;
    }
    if (load.bus > hyperperiod_) return false;
    for (std::size_t u = 0; u < num_usable_; ++u) {
      if (!feasible(u, load)) return false;
    }
    return true;
  }

 private:
  /// EDF feasibility of usable host `u` running exactly the tasks whose
  /// bits are set in `load`.
  bool feasible(std::size_t u, SchedLoad& load) {
    const std::span<const std::uint64_t> taskset(
        load.bits.data() + u * words_, words_);
    if (std::all_of(taskset.begin(), taskset.end(),
                    [](std::uint64_t word) { return word == 0; })) {
      return true;  // hostless job set is trivially feasible
    }
    load.key_buf.assign(taskset.begin(), taskset.end());
    Shard& shard = shards_[u];
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.verdicts.find(load.key_buf);
      if (it != shard.verdicts.end()) {
        ++load.cache_hits;
        return it->second;
      }
    }
    ++load.cache_misses;
    load.job_buf.clear();
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t word = taskset[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        load.job_buf.push_back(jobs_[(w * 64 + bit) * num_usable_ + u]);
      }
    }
    const bool ok = sched::edf_feasible(load.job_buf);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.verdicts.emplace(load.key_buf, ok);
    return ok;
  }

  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::vector<std::uint64_t>, bool, WordsHash> verdicts;
  };

  std::size_t words_;
  std::size_t num_usable_;
  Time hyperperiod_;
  std::vector<sched::JobWindow> jobs_;  ///< [task * num_usable + u]
  std::vector<Time> wctt_;              ///< same indexing; 0 at holes
  /// (slot, lookup error) of every hole, slots ascending.
  std::vector<std::pair<std::size_t, Status>> holes_;
  std::vector<Shard> shards_;
};

/// The full-replication mapping over the usable hosts, with the options'
/// redundancy applied — one Implementation::Build that both validates the
/// caller's sensor bindings (as building any candidate would) and seeds
/// the SRG ceiling evaluator.
Result<impl::Implementation> build_ceiling(
    const spec::Specification& spec, const arch::Architecture& arch,
    const std::vector<impl::ImplementationConfig::SensorBinding>& bindings,
    const std::vector<HostId>& usable, const SynthesisOptions& options) {
  std::vector<std::vector<HostId>> assignment(spec.tasks().size(), usable);
  // A pinned task never leaves its pinned set, so the ceiling — the
  // admissible SRG upper bound every subtree is scored against — seeds it
  // with that set instead of full replication. This tightens the bound and
  // detects pin-infeasible problems before any search starts.
  if (!options.pinned_hosts.empty()) {
    for (std::size_t t = 0; t < assignment.size(); ++t) {
      if (!options.pinned_hosts[t].empty()) {
        assignment[t] = options.pinned_hosts[t];
      }
    }
  }
  return impl::Implementation::Build(
      spec, arch,
      assignment_config(spec, arch, bindings, assignment, options));
}

/// Parallel best-first branch-and-bound over per-task host subsets.
///
/// Invariant: while the search sits at depth t, tasks [0, t) carry their
/// chosen subsets and tasks [t, n) still carry the full usable host set
/// (the ceiling the evaluator was seeded with). all_lrcs_satisfied() at
/// that state is therefore an admissible upper bound on every completion
/// of the prefix — if it already fails, the subtree cannot contain a
/// valid mapping.
///
/// Determinism: the incumbent is the minimum of (cost, path) over valid
/// leaves, where path is the per-task subset-index vector. A subtree is
/// pruned only when it provably cannot hold that minimum: its cost lower
/// bound strictly exceeds a known valid candidate's cost, or equals it
/// while the subtree's path prefix is already lexicographically greater
/// than that candidate's path. Both tests stay valid against a stale
/// incumbent snapshot, so the winner is independent of thread scheduling
/// and equal to the first minimal-cost leaf of a plain depth-first search.
///
/// Timing-table holes: the first leaf that meets every LRC but maps a task
/// onto a hole aborts the search with that lookup error — the first such
/// leaf in depth-first order. A sequential run reaches the LRC-meeting
/// leaves in exactly that order (the ceiling prunes only subtrees without
/// one; the cost bound drops exactly the leaves a depth-first search with
/// `cost + remaining >= best` skips), so a search over tables with holes
/// runs on a pool of 1.
class BnbSearch {
 public:
  BnbSearch(const spec::Specification& spec, const arch::Architecture& arch,
            const std::vector<impl::ImplementationConfig::SensorBinding>&
                bindings,
            const std::vector<HostId>& usable, const SynthesisOptions& options)
      : spec_(spec),
        arch_(arch),
        bindings_(bindings),
        usable_(usable),
        options_(options),
        num_tasks_(static_cast<TaskId>(spec.tasks().size())) {}

  Result<SynthesisResult> run() {
    LRT_ASSIGN_OR_RETURN(
        const impl::Implementation ceiling,
        build_ceiling(spec_, arch_, bindings_, usable_, options_));
    LRT_ASSIGN_OR_RETURN(
        base_, reliability::SrgEvaluator::FromImplementation(ceiling));
    base_->set_relaxed(options_.relaxed_lrcs);
    if (!base_->all_lrcs_satisfied()) {
      // Even full replication misses an unrelaxed LRC: the whole search
      // tree is one infeasible subtree.
      return unsatisfiable();
    }
    if (options_.require_schedulable) {
      gate_ = std::make_unique<SchedGate>(spec_, arch_, usable_, ceiling);
    }

    const std::vector<std::vector<HostId>> raw = candidate_subsets(
        arch_, usable_, options_.max_replication_per_task);
    std::vector<std::size_t> usable_index_of(arch_.hosts().size(), 0);
    for (std::size_t u = 0; u < usable_.size(); ++u) {
      usable_index_of[static_cast<std::size_t>(usable_[u])] = u;
    }
    subsets_.resize(raw.size());
    for (std::size_t s = 0; s < raw.size(); ++s) {
      subsets_[s].hosts = raw[s];
      for (const HostId h : raw[s]) {
        subsets_[s].usable_index.push_back(
            usable_index_of[static_cast<std::size_t>(h)]);
      }
    }
    // Resolve each pinned host set to its subset index. The match always
    // exists: pins are validated to be sorted, duplicate-free subsets of
    // the usable hosts within max_replication_per_task — exactly the
    // candidate enumeration.
    pinned_subset_.assign(static_cast<std::size_t>(num_tasks_), -1);
    if (!options_.pinned_hosts.empty()) {
      for (TaskId t = 0; t < num_tasks_; ++t) {
        const auto& pinned =
            options_.pinned_hosts[static_cast<std::size_t>(t)];
        if (pinned.empty()) continue;
        for (std::size_t s = 0; s < subsets_.size(); ++s) {
          if (subsets_[s].hosts == pinned) {
            pinned_subset_[static_cast<std::size_t>(t)] =
                static_cast<std::int32_t>(s);
            break;
          }
        }
      }
    }

    if (num_tasks_ == 0) {
      // Degenerate: the empty assignment is the only candidate.
      Worker w(*base_, 0, empty_load());
      leaf(w, 0);
      collect(w);
    } else {
      // A pinned first task has exactly one live top-level subtree; listing
      // it alone keeps the parallel_for from burning a worker acquisition
      // per dead candidate.
      std::vector<std::size_t> tops;
      if (const std::int32_t pin = pin_of(0); pin >= 0) {
        tops.push_back(static_cast<std::size_t>(pin));
      } else {
        tops.resize(subsets_.size());
        std::iota(tops.begin(), tops.end(), std::size_t{0});
      }
      const bool holes = gate_ != nullptr && gate_->has_holes();
      ThreadPool pool(holes ? 1 : options_.threads);
      pool.parallel_for(static_cast<std::int64_t>(tops.size()),
                        [this, &tops](std::int64_t i) {
                          std::unique_ptr<Worker> w = acquire();
                          top_level(*w, tops[static_cast<std::size_t>(i)]);
                          release(std::move(w));
                        });
      for (const std::unique_ptr<Worker>& w : idle_) collect(*w);
    }

    if (!failure_.ok()) return failure_;
    if (best_cost_exact_ == kNoIncumbent) return unsatisfiable();
    std::vector<std::vector<HostId>> assignment;
    assignment.reserve(static_cast<std::size_t>(num_tasks_));
    for (const std::int32_t s : best_path_) {
      assignment.push_back(subsets_[static_cast<std::size_t>(s)].hosts);
    }
    result_.config =
        assignment_config(spec_, arch_, bindings_, assignment, options_);
    result_.replication_count = static_cast<std::size_t>(best_cost_exact_);
    result_.candidates_evaluated =
        result_.full_evals + result_.incremental_evals;
    result_.incumbent_updates = incumbent_updates_;
    return result_;
  }

 private:
  struct Subset {
    std::vector<HostId> hosts;               ///< ascending
    std::vector<std::size_t> usable_index;   ///< same hosts, usable indices
  };

  struct Worker {
    Worker(const reliability::SrgEvaluator& base, TaskId num_tasks,
           SchedLoad empty)
        : eval(base),
          path(static_cast<std::size_t>(num_tasks), 0),
          load(std::move(empty)) {}

    reliability::SrgEvaluator eval;
    std::vector<std::int32_t> path;  ///< subset index per task
    SchedLoad load;                  ///< unused without a gate
    std::int64_t full_evals = 0;
    std::int64_t incremental_evals = 0;
    std::int64_t subtrees_pruned = 0;
    /// Possibly-stale copy of the incumbent. Staleness is safe: pruning
    /// only compares against it when it is a REAL valid candidate, and
    /// anything dominated by a stale incumbent is dominated by the final
    /// winner too.
    std::int64_t snap_cost = kNoIncumbent;
    std::vector<std::int32_t> snap_path;
  };

  static Status unsatisfiable() {
    return UnsatisfiableError(
        "no replication mapping satisfies every LRC (and schedulability) "
        "within the configured bounds");
  }

  std::unique_ptr<Worker> acquire() {
    {
      const std::lock_guard<std::mutex> lock(workers_mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<Worker> w = std::move(idle_.back());
        idle_.pop_back();
        return w;
      }
    }
    // At most pool-size workers are ever constructed; a finished worker's
    // DFS has fully unwound, so its evaluator is back at the ceiling.
    return std::make_unique<Worker>(*base_, num_tasks_, empty_load());
  }

  [[nodiscard]] SchedLoad empty_load() const {
    return gate_ != nullptr ? gate_->empty_load() : SchedLoad{};
  }

  void release(std::unique_ptr<Worker> w) {
    const std::lock_guard<std::mutex> lock(workers_mutex_);
    idle_.push_back(std::move(w));
  }

  void collect(const Worker& w) {
    result_.full_evals += w.full_evals;
    result_.incremental_evals += w.incremental_evals;
    result_.subtrees_pruned += w.subtrees_pruned;
    result_.cache_hits += w.load.cache_hits;
    result_.cache_misses += w.load.cache_misses;
  }

  /// Pulls the shared incumbent into the worker's snapshot when the
  /// atomic shows a cheaper one exists. The snapshot may still lag path
  /// improvements at equal cost; that only weakens pruning, never
  /// correctness.
  void maybe_refresh(Worker& w) {
    if (best_cost_.load(std::memory_order_relaxed) >= w.snap_cost) return;
    const std::lock_guard<std::mutex> lock(best_mutex_);
    w.snap_cost = best_cost_exact_;
    w.snap_path = best_path_;
  }

  /// True when the depth-(t+1) prefix (w.path[0..t), s) is lexicographically
  /// greater than the snapshot incumbent's prefix. Every leaf under the
  /// prefix then has path > snap_path, so at equal cost none can displace
  /// an incumbent that is itself a valid candidate — the subtree is dead
  /// even if the snapshot is stale, because the final winner is <= it.
  bool prefix_beaten(const Worker& w, TaskId t, std::size_t s) const {
    for (std::size_t i = 0; i < static_cast<std::size_t>(t); ++i) {
      if (w.path[i] != w.snap_path[i]) return w.path[i] > w.snap_path[i];
    }
    return static_cast<std::int32_t>(s) >
           w.snap_path[static_cast<std::size_t>(t)];
  }

  /// Assigns subset `s` to task `t` and, unless bounded out, recurses.
  void enter(Worker& w, TaskId t, std::size_t s, std::int64_t cost) {
    const Subset& sub = subsets_[s];
    w.path[static_cast<std::size_t>(t)] = static_cast<std::int32_t>(s);
    const reliability::SrgEvaluator::Mark m = w.eval.mark();
    ++w.incremental_evals;
    w.eval.set_task_hosts(t, sub.hosts);
    if (!w.eval.all_lrcs_satisfied()) {
      ++w.subtrees_pruned;  // SRG ceiling bound: no completion can pass
      w.eval.rollback(m);
      return;
    }
    if (gate_ != nullptr) {
      for (const std::size_t u : sub.usable_index) gate_->add(w.load, t, u);
    }
    descend(w, t + 1, cost + static_cast<std::int64_t>(sub.hosts.size()));
    if (gate_ != nullptr) {
      for (const std::size_t u : sub.usable_index) gate_->remove(w.load, t, u);
    }
    w.eval.rollback(m);
  }

  /// The subset index task `t` is pinned to, or -1 when it is free.
  [[nodiscard]] std::int32_t pin_of(TaskId t) const {
    return pinned_subset_[static_cast<std::size_t>(t)];
  }

  void descend(Worker& w, TaskId t, std::int64_t cost) {
    if (t == num_tasks_) {
      leaf(w, cost);
      return;
    }
    if (const std::int32_t pin = pin_of(t); pin >= 0) {
      // A pinned task has exactly one branch; the incumbent bound still
      // applies to it.
      maybe_refresh(w);
      const auto s = static_cast<std::size_t>(pin);
      const std::int64_t lb =
          cost + static_cast<std::int64_t>(subsets_[s].hosts.size()) +
          (num_tasks_ - t - 1);
      if (lb > w.snap_cost ||
          (lb == w.snap_cost && prefix_beaten(w, t, s))) {
        ++w.subtrees_pruned;
        return;
      }
      enter(w, t, s, cost);
      return;
    }
    for (std::size_t s = 0; s < subsets_.size() && failure_.ok(); ++s) {
      maybe_refresh(w);
      const std::int64_t lb = cost +
                              static_cast<std::int64_t>(
                                  subsets_[s].hosts.size()) +
                              (num_tasks_ - t - 1);
      // Subsets are ordered by cardinality ascending, so once a subset is
      // bounded out every later one is too: a later subset's lb never
      // shrinks and, at equal lb, its larger index keeps the prefix
      // lexicographically beaten.
      if (lb > w.snap_cost ||
          (lb == w.snap_cost && prefix_beaten(w, t, s))) {
        w.subtrees_pruned += static_cast<std::int64_t>(subsets_.size() - s);
        break;
      }
      enter(w, t, s, cost);
    }
  }

  void top_level(Worker& w, std::size_t s) {
    if (!failure_.ok()) return;
    maybe_refresh(w);
    const std::int64_t lb =
        static_cast<std::int64_t>(subsets_[s].hosts.size()) + (num_tasks_ - 1);
    if (lb > w.snap_cost || (lb == w.snap_cost && prefix_beaten(w, 0, s))) {
      ++w.subtrees_pruned;
      return;
    }
    enter(w, 0, s, 0);
  }

  void leaf(Worker& w, std::int64_t cost) {
    // Reaching a leaf means every task carries its chosen subset, so the
    // last enter()'s all_lrcs_satisfied() was the exact verdict; only the
    // schedulability gate remains.
    ++w.full_evals;
    if (gate_ != nullptr) {
      Result<bool> admitted = gate_->admits(w.load);
      if (!admitted.ok()) {
        failure_ = admitted.status();  // only on a pool of 1, see run()
        return;
      }
      if (!*admitted) return;
    }
    const std::lock_guard<std::mutex> lock(best_mutex_);
    if (cost < best_cost_exact_ ||
        (cost == best_cost_exact_ && w.path < best_path_)) {
      best_cost_exact_ = cost;
      best_path_ = w.path;
      best_cost_.store(cost, std::memory_order_relaxed);
      ++incumbent_updates_;
    }
    // Already under the lock: refresh the snapshot for free.
    w.snap_cost = best_cost_exact_;
    w.snap_path = best_path_;
  }

  const spec::Specification& spec_;
  const arch::Architecture& arch_;
  const std::vector<impl::ImplementationConfig::SensorBinding>& bindings_;
  const std::vector<HostId>& usable_;
  const SynthesisOptions& options_;
  const TaskId num_tasks_;

  /// The ceiling evaluator workers are cloned from; optional only because
  /// SrgEvaluator has no public default constructor — set once in run().
  std::optional<reliability::SrgEvaluator> base_;
  std::vector<Subset> subsets_;
  /// Subset index each task is pinned to (-1 = free): options_.pinned_hosts
  /// resolved against subsets_ once, so the hot descend() path compares an
  /// int instead of host vectors.
  std::vector<std::int32_t> pinned_subset_;
  std::unique_ptr<SchedGate> gate_;
  /// The lookup error that aborted the search (hole tables only).
  Status failure_;

  std::mutex workers_mutex_;
  std::vector<std::unique_ptr<Worker>> idle_;

  std::atomic<std::int64_t> best_cost_{kNoIncumbent};
  std::mutex best_mutex_;
  std::int64_t best_cost_exact_ = kNoIncumbent;
  std::vector<std::int32_t> best_path_;
  /// Times the shared incumbent actually improved (guarded by best_mutex_).
  std::int64_t incumbent_updates_ = 0;

  SynthesisResult result_;
};

}  // namespace

std::vector<std::vector<HostId>> candidate_subsets(
    const arch::Architecture& arch, const std::vector<HostId>& usable,
    int max_size) {
  const int hosts = static_cast<int>(usable.size());
  std::vector<std::vector<HostId>> subsets;
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << hosts); ++mask) {
    std::vector<HostId> subset;
    for (int h = 0; h < hosts; ++h) {
      if ((mask >> h) & 1u) {
        subset.push_back(usable[static_cast<std::size_t>(h)]);
      }
    }
    if (static_cast<int>(subset.size()) <= max_size) {
      subsets.push_back(std::move(subset));
    }
  }
  std::sort(subsets.begin(), subsets.end(),
            [&arch](const std::vector<HostId>& a,
                    const std::vector<HostId>& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              const auto rel = [&arch](const std::vector<HostId>& s) {
                double fail = 1.0;
                for (const HostId h : s) fail *= 1.0 - arch.host(h).reliability;
                return 1.0 - fail;
              };
              return rel(a) > rel(b);
            });
  return subsets;
}

impl::ImplementationConfig assignment_config(
    const spec::Specification& spec, const arch::Architecture& arch,
    const std::vector<impl::ImplementationConfig::SensorBinding>& bindings,
    const std::vector<std::vector<HostId>>& assignment,
    const SynthesisOptions& options) {
  impl::ImplementationConfig config;
  config.name = "synthesized";
  for (TaskId t = 0; t < static_cast<TaskId>(spec.tasks().size()); ++t) {
    impl::ImplementationConfig::TaskMapping mapping;
    mapping.task = spec.task(t).name;
    for (const HostId h : assignment[static_cast<std::size_t>(t)]) {
      mapping.hosts.push_back(arch.host(h).name);
    }
    if (!options.task_redundancy.empty()) {
      const auto& redundancy =
          options.task_redundancy[static_cast<std::size_t>(t)];
      mapping.reexecutions = redundancy.reexecutions;
      mapping.checkpoints = redundancy.checkpoints;
      mapping.checkpoint_overhead = redundancy.checkpoint_overhead;
    }
    config.task_mappings.push_back(std::move(mapping));
  }
  config.sensor_bindings = bindings;
  return config;
}

Result<SynthesisResult> fast_exhaustive(
    const spec::Specification& spec, const arch::Architecture& arch,
    const std::vector<impl::ImplementationConfig::SensorBinding>& bindings,
    const std::vector<HostId>& usable, const SynthesisOptions& options) {
  BnbSearch search(spec, arch, bindings, usable, options);
  return search.run();
}

Result<SynthesisResult> fast_greedy(
    const spec::Specification& spec, const arch::Architecture& arch,
    const std::vector<impl::ImplementationConfig::SensorBinding>& bindings,
    const std::vector<HostId>& usable, const SynthesisOptions& options) {
  LRT_ASSIGN_OR_RETURN(
      const impl::Implementation ceiling,
      build_ceiling(spec, arch, bindings, usable, options));
  LRT_ASSIGN_OR_RETURN(reliability::SrgEvaluator eval,
                       reliability::SrgEvaluator::FromImplementation(ceiling));
  eval.set_relaxed(options.relaxed_lrcs);

  const auto num_tasks = static_cast<TaskId>(spec.tasks().size());
  const auto num_comms = static_cast<CommId>(spec.communicators().size());
  std::vector<std::uint8_t> relaxed(static_cast<std::size_t>(num_comms), 0);
  for (const CommId c : options.relaxed_lrcs) {
    relaxed[static_cast<std::size_t>(c)] = 1;
  }

  SynthesisResult result;

  // Start: every task on the single most reliable usable host, ties to the
  // lowest HostId; a pinned task starts (and stays) on its pinned set.
  HostId best_host = usable.front();
  for (const HostId h : usable) {
    if (arch.host(h).reliability > arch.host(best_host).reliability) {
      best_host = h;
    }
  }
  const auto pinned_set = [&options](TaskId t) -> const std::vector<HostId>* {
    if (options.pinned_hosts.empty()) return nullptr;
    const auto& pinned = options.pinned_hosts[static_cast<std::size_t>(t)];
    return pinned.empty() ? nullptr : &pinned;
  };
  std::vector<std::vector<HostId>> assignment(
      static_cast<std::size_t>(num_tasks), std::vector<HostId>{best_host});
  for (TaskId t = 0; t < num_tasks; ++t) {
    if (const std::vector<HostId>* pinned = pinned_set(t)) {
      assignment[static_cast<std::size_t>(t)] = *pinned;
    }
    ++result.incremental_evals;
    eval.set_task_hosts(t, assignment[static_cast<std::size_t>(t)]);
  }
  eval.discard_trail();  // the repair loop never backtracks

  // Schedulability state, updated once per repair move.
  std::optional<SchedGate> gate;
  SchedLoad load;
  std::vector<std::size_t> usable_index_of(arch.hosts().size(), 0);
  if (options.require_schedulable) {
    gate.emplace(spec, arch, usable, ceiling);
    load = gate->empty_load();
    for (std::size_t u = 0; u < usable.size(); ++u) {
      usable_index_of[static_cast<std::size_t>(usable[u])] = u;
    }
    for (TaskId t = 0; t < num_tasks; ++t) {
      for (const HostId h : assignment[static_cast<std::size_t>(t)]) {
        gate->add(load, t, usable_index_of[static_cast<std::size_t>(h)]);
      }
    }
  }

  // Support set of a communicator: the tasks whose reliability its SRG
  // depends on (writer, then transitively the writers of its inputs,
  // stopping at independent-model tasks).
  const auto support = [&spec](CommId comm) {
    std::vector<TaskId> tasks;
    std::set<CommId> visited;
    std::vector<CommId> stack = {comm};
    while (!stack.empty()) {
      const CommId c = stack.back();
      stack.pop_back();
      if (!visited.insert(c).second) continue;
      const auto writer = spec.writer_of(c);
      if (!writer.has_value()) continue;
      tasks.push_back(*writer);
      if (spec.task(*writer).model != spec::FailureModel::kIndependent) {
        for (const CommId in : spec.input_comm_set(*writer)) {
          stack.push_back(in);
        }
      }
    }
    return tasks;
  };

  const std::size_t max_total =
      static_cast<std::size_t>(num_tasks) *
      std::min<std::size_t>(usable.size(),
                            static_cast<std::size_t>(
                                options.max_replication_per_task));
  while (true) {
    ++result.full_evals;
    bool ok = eval.all_lrcs_satisfied();
    if (ok && gate.has_value()) {
      // A hole in a reliable mapping is the lookup error itself.
      LRT_ASSIGN_OR_RETURN(ok, gate->admits(load));
    }
    if (ok) break;

    // Most-violated unrelaxed communicator; CommId order with ties to the
    // first (min_element over the report's violations).
    CommId worst = -1;
    double worst_slack = 0.0;
    for (CommId c = 0; c < num_comms; ++c) {
      if (eval.satisfied(c) || relaxed[static_cast<std::size_t>(c)] != 0) {
        continue;
      }
      const double s = eval.slack(c);
      if (worst == -1 || s < worst_slack) {
        worst = c;
        worst_slack = s;
      }
    }
    if (worst == -1) {
      // Reliable but unschedulable: replication only adds load, so greedy
      // cannot repair it.
      return UnsatisfiableError(
          "greedy synthesis: mapping is reliable but not schedulable; "
          "no repair move available");
    }

    // Best move: add the most reliable unused host to the support task
    // with the lowest current task reliability.
    TaskId move_task = -1;
    HostId move_host = -1;
    double move_score = -1.0;
    for (const TaskId t : support(worst)) {
      if (pinned_set(t) != nullptr) continue;  // pinned: not a repair knob
      auto& hosts = assignment[static_cast<std::size_t>(t)];
      if (static_cast<int>(hosts.size()) >=
          options.max_replication_per_task) {
        continue;
      }
      for (const HostId h : usable) {
        if (std::find(hosts.begin(), hosts.end(), h) != hosts.end()) continue;
        // Marginal gain on lambda_t of adding h to t.
        double fail = 1.0;
        for (const HostId existing : hosts) {
          fail *= 1.0 - arch.host(existing).reliability;
        }
        const double gain = fail * arch.host(h).reliability;
        if (gain > move_score) {
          move_score = gain;
          move_task = t;
          move_host = h;
        }
      }
    }
    if (move_task == -1) {
      return UnsatisfiableError(
          "greedy synthesis: LRC of '" + spec.communicator(worst).name +
          "' unmet and every supporting task is fully replicated");
    }
    auto& hosts = assignment[static_cast<std::size_t>(move_task)];
    hosts.push_back(move_host);
    std::sort(hosts.begin(), hosts.end());
    ++result.incremental_evals;
    eval.set_task_hosts(move_task, hosts);
    eval.discard_trail();
    if (gate.has_value()) {
      gate->add(load, move_task,
                usable_index_of[static_cast<std::size_t>(move_host)]);
    }

    std::size_t total = 0;
    for (const auto& set : assignment) total += set.size();
    if (total > max_total) {
      return InternalError("greedy synthesis failed to terminate");
    }
  }

  result.config = assignment_config(spec, arch, bindings, assignment, options);
  for (const auto& set : assignment) result.replication_count += set.size();
  result.cache_hits = load.cache_hits;
  result.cache_misses = load.cache_misses;
  result.candidates_evaluated = result.full_evals + result.incremental_evals;
  return result;
}

}  // namespace lrt::synth::internal
