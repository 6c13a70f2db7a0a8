// lrt_e2ebench: drives one benchmark workload through the system's
// user-facing entry points and reports raw measurements for run.py.
//
//   lrt_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                --out DIR [--connections C] [--workers W] [--setups K]
//                [--corrupt I] [--corrupt-replay]
//
// Workloads (README.md says why each exists):
//   lrtd_cold      full `analyze` requests over AF_UNIX, rotating over more
//                  generated 200-task designs than the service keeps resident
//   lrtd_edit      fingerprint-addressed `mutate` deltas on one resident
//                  200-task design per connection
//   sim_3ts        self-healing Monte Carlo campaigns of the paper's 3TS
//   sim_multirate  `validate` requests over AF_UNIX on an idle-dominated
//                  multi-rate design
//
// Every input is generated from --seed; the program under test receives
// only those inputs. Every output is checked against an oracle computed
// outside the timed window; mismatches, error frames and shed requests
// count as failed. The untraced run installs no obs sink. The traced run
// (--trace 1) adds three phases: an untraced and a traced pass of the same
// closed loop (the second with an obs sink installed, read only for the
// counters the program already emits), then a direct replay of the calls
// into each layer with spans recorded by this file around those calls.
//
// Outputs in DIR: measured-c<C>.f64, one file per caller C, holding a
// float64 pair per operation (its latency in ms and its completion time
// in s since the loop began); in traced runs untraced-c<C>.f64,
// traced-c<C>.f64 and trace.tsv (spans and values, see trace_table.py).
// Per-operation records are streamed to files, never kept in memory. The
// last stdout line is a JSON summary.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adapt/recovery_validation.h"
#include "adapt/repair_planner.h"
#include "adapt/self_healing.h"
#include "arch/arch_json.h"
#include "gen/workload.h"
#include "impl/impl_json.h"
#include "lrt/lrt.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "plant/three_tank_system.h"
#include "reliability/analysis.h"
#include "reliability/incremental.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "sim/environment.h"
#include "sim/monte_carlo.h"
#include "spec/spec_graph.h"
#include "spec/spec_json.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/rng.h"

#ifndef LRT_E2EBENCH_COMPILER
#define LRT_E2EBENCH_COMPILER "unknown"
#endif
#ifndef LRT_E2EBENCH_BUILD_TYPE
#define LRT_E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lrt;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  std::exit(2);
}

template <class T>
T must(Result<T> result, const std::string& what) {
  if (!result.ok()) die(what + ": " + result.status().to_string());
  return std::move(result).value();
}

// --- spans ------------------------------------------------------------

/// Spans one log keeps. Replay loops stop at a request boundary once a
/// log is full (so every kept span keeps all its children); single-level
/// logs just stop recording at twice the budget.
constexpr std::size_t kSpanBudget = 250000;
/// Frames one Service::handle replay times.
constexpr std::size_t kHandleReplayMax = 50000;
/// Untimed warm-up before measuring, as a share of --seconds.
constexpr double kWarmupShare = 0.1;
/// Set-ups repeat, beyond --setups, until they have taken this long (at
/// most kMaxSetups of them). The host slows a CPU for seconds at a time,
/// so the set-ups must span several of those phases and the CPUs run.py
/// moves the process across.
constexpr double kSetupSeconds = 4.0;
constexpr int kMaxSetups = 500;

struct Span {
  std::int64_t request = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t bytes = 0;
  bool ok = true;
};

/// One thread's spans. Ids are unique across logs: the log's stream
/// number occupies the high bits.
class SpanLog {
 public:
  explicit SpanLog(std::int64_t stream) : next_id_(stream << 40) {}

  std::int64_t new_id() { return ++next_id_; }
  void add(const Span& span) {
    if (spans_.size() < 2 * kSpanBudget) spans_.push_back(span);
  }
  [[nodiscard]] bool full() const { return spans_.size() >= kSpanBudget; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t next_id_;
  std::vector<Span> spans_;
};

/// Times one call into a layer; recorded when it goes out of scope. A
/// null log makes it inert.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::int64_t request,
            std::int64_t parent)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.request = request;
    span_.id = log_->new_id();
    span_.parent = parent;
    span_.name = name;
    span_.start_ns = now_ns();
  }
  ~SpanScope() {
    if (log_ == nullptr) return;
    span_.end_ns = now_ns();
    log_->add(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::int64_t id() const { return span_.id; }
  void fail() { span_.ok = false; }
  void set_bytes(std::size_t bytes) {
    span_.bytes = static_cast<std::int64_t>(bytes);
  }

 private:
  SpanLog* log_;
  Span span_;
};

/// Named per-layer values that are not spans (counters read from the obs
/// sink, input properties, frame sizes).
using LayerValues = std::vector<std::pair<std::string, double>>;

// --- run bookkeeping --------------------------------------------------

/// Bytes of stdio buffer per record file.
constexpr std::size_t kRecordBuffer = std::size_t{1} << 16;

/// Per-operation records (latency samples, response hashes, campaign
/// digests) streamed through a fixed, pre-touched buffer to a file in the
/// run's output directory, so the benchmark's own memory does not grow
/// with the number of operations and peak_rss_mb stays the program's.
class RecordFile {
 public:
  RecordFile(const std::string& path, const char* mode)
      : buffer_(std::make_unique<char[]>(kRecordBuffer)),
        file_(std::fopen(path.c_str(), mode)) {
    if (file_ == nullptr) die("cannot open " + path);
    std::setvbuf(file_, buffer_.get(), _IOFBF, kRecordBuffer);
  }
  ~RecordFile() {
    if (file_ != nullptr) std::fclose(file_);
  }
  RecordFile(RecordFile&& other) noexcept
      : buffer_(std::move(other.buffer_)),
        file_(std::exchange(other.file_, nullptr)) {}
  RecordFile& operator=(RecordFile&&) = delete;
  RecordFile(const RecordFile&) = delete;
  RecordFile& operator=(const RecordFile&) = delete;

  template <class T>
  void put(const T& value) {
    if (std::fwrite(&value, sizeof value, 1, file_) != 1) die("record write");
  }
  /// False at the end of the file.
  template <class T>
  bool get(T& value) {
    return std::fread(&value, sizeof value, 1, file_) == 1;
  }
  void flush() {
    if (std::fflush(file_) != 0) die("record flush");
  }

 private:
  std::unique_ptr<char[]> buffer_;
  std::FILE* file_;
};

struct RunStats {
  std::int64_t attempted = 0;
  std::int64_t shed = 0;
  std::int64_t error_frames = 0;
  std::int64_t wrong = 0;
  double elapsed_s = 0.0;

  [[nodiscard]] std::int64_t failed() const {
    return shed + error_frames + wrong;
  }
  void merge(const RunStats& other) {
    attempted += other.attempted;
    shed += other.shed;
    error_frames += other.error_frames;
    wrong += other.wrong;
  }
};

/// Where one closed-loop pass streams its per-operation samples: file
/// `<prefix>-c<caller>.f64` holds (latency ms, completion s since the
/// pass began) float64 pairs. An empty prefix keeps no samples.
std::vector<RecordFile> open_samples(const std::string& prefix,
                                     std::size_t callers) {
  std::vector<RecordFile> files;
  if (prefix.empty()) return files;
  for (std::size_t c = 0; c < callers; ++c) {
    files.emplace_back(prefix + "-c" + std::to_string(c) + ".f64", "wb");
  }
  return files;
}

void put_sample(std::vector<RecordFile>& files, std::size_t caller,
                Clock::time_point start, Clock::time_point begun,
                Clock::time_point done) {
  if (files.empty()) return;
  files[caller].put(
      std::chrono::duration<double, std::milli>(done - begun).count());
  files[caller].put(std::chrono::duration<double>(done - start).count());
}

/// Counts a response that differs from its oracle: a shed request, an
/// error frame, or a wrong answer.
void judge(const std::string& response, const std::string& expected,
           RunStats& stats) {
  if (response == expected) return;
  if (response.find("\"ok\":false") != std::string::npos) {
    if (response.find("\"kUnavailable\"") != std::string::npos) {
      ++stats.shed;
    } else {
      ++stats.error_frames;
    }
  } else {
    ++stats.wrong;
  }
}

/// Test hook (--corrupt I): the first time output I of connection 0 (or
/// campaign I) is produced, it is altered before its oracle sees it, so
/// the benchmark's own tests can show that every oracle fires. Read and
/// written by one thread only (connection 0's, or the campaign loop's).
std::int64_t g_corrupt_index = -1;

bool take_corruption(std::int64_t index) {
  if (index != g_corrupt_index) return false;
  g_corrupt_index = -1;
  return true;
}

/// Test hook (--corrupt-replay): the first result the traced run's direct
/// layer replay computes is altered before it is compared, so the tests
/// can show that the traced-versus-untraced oracle fires.
bool g_corrupt_replay = false;

bool take_replay_corruption() { return std::exchange(g_corrupt_replay, false); }

// --- generated inputs -------------------------------------------------

/// One design as the wire carries it: canonical spec/arch/impl JSON.
struct Design {
  std::string spec_json;
  std::string arch_json;
  std::string impl_json;
  std::vector<std::string> tasks;
  std::vector<std::string> hosts;
};

/// A generated 200-task design: 10 layers x 20 tasks on 4 hosts.
Design generated_design(Xoshiro256& rng) {
  gen::WorkloadOptions options;
  options.min_layers = 10;
  options.max_layers = 10;
  options.min_tasks_per_layer = 20;
  options.max_tasks_per_layer = 20;
  options.min_hosts = 4;
  options.max_hosts = 4;
  gen::Workload workload =
      must(gen::random_workload(rng, options), "workload generation");
  Design design;
  design.spec_json = spec::to_json(workload.specification->to_config());
  design.arch_json = arch::to_json(workload.architecture_config);
  design.impl_json = impl::to_json(workload.implementation_config);
  for (const auto& mapping : workload.implementation_config.task_mappings) {
    design.tasks.push_back(mapping.task);
  }
  for (const auto& host : workload.architecture_config.hosts) {
    design.hosts.push_back(host.name);
  }
  return design;
}

plant::ThreeTankScenario three_tank_scenario() {
  plant::ThreeTankScenario scenario;
  scenario.variant = plant::ThreeTankVariant::kReplicatedTasks;
  scenario.lrc_controls = 0.98;
  scenario.host_count = 3;
  return scenario;
}

/// The paper's 3TS (scenario 1, 0.98 control LRC) as a wire design.
Design three_tank_design() {
  const plant::ThreeTankSystem system =
      must(plant::make_three_tank_system(three_tank_scenario()), "3TS build");
  Design design;
  design.spec_json = spec::to_json(system.specification->to_config());
  design.arch_json = arch::to_json(system.architecture->to_config());
  design.impl_json = impl::to_json(system.implementation->to_config());
  return design;
}

void envelope_head(const char* verb, const std::string& id,
                   JsonWriter& json) {
  json.begin_object();
  json.key("schema");
  json.value(service::kWireSchemaVersion);
  json.key("id");
  json.value(id);
  json.key("verb");
  json.value(verb);
}

std::string analyze_frame(const Design& design, const std::string& id) {
  JsonWriter json;
  envelope_head("analyze", id, json);
  json.key("spec");
  json.raw(design.spec_json);
  json.key("arch");
  json.raw(design.arch_json);
  json.key("implementation");
  json.raw(design.impl_json);
  json.end_object();
  return std::move(json).str();
}

struct Mutation {
  std::size_t task = 0;
  std::vector<std::string> hosts;
};

std::string mutate_frame(const Design& design, const std::string& fingerprint,
                         const std::string& id, const Mutation& mutation) {
  JsonWriter json;
  envelope_head("analyze", id, json);
  json.key("fingerprint");
  json.value(fingerprint);
  json.key("mutate");
  json.begin_object();
  json.key("task");
  json.value(design.tasks[mutation.task]);
  json.key("hosts");
  json.begin_array();
  for (const std::string& host : mutation.hosts) json.value(host);
  json.end_array();
  json.end_object();
  json.end_object();
  return std::move(json).str();
}

struct CampaignShape {
  std::int64_t trials = 0;
  std::int64_t periods = 0;
  std::uint64_t seed = 0;
};

std::string validate_frame(const Design& design, const std::string& id,
                           const CampaignShape& shape) {
  JsonWriter json;
  envelope_head("validate", id, json);
  json.key("spec");
  json.raw(design.spec_json);
  json.key("arch");
  json.raw(design.arch_json);
  json.key("implementation");
  json.raw(design.impl_json);
  json.key("trials");
  json.value(shape.trials);
  json.key("periods");
  json.value(shape.periods);
  json.key("seed");
  // The wire carries the seed as a JSON number: keep it exact in a double.
  json.value(static_cast<std::int64_t>(shape.seed));
  json.end_object();
  return std::move(json).str();
}

std::uint64_t digest_strings(const std::vector<std::string>& parts) {
  std::uint64_t digest = 0;
  for (const std::string& part : parts) {
    digest = hash_combine(digest, hash_bytes(part));
  }
  return digest;
}

/// Share of harmonic-grid ticks in one specification period at which
/// some communicator is accessed (the ticks the tick engine cannot skip).
struct GridShape {
  std::int64_t ticks_per_period = 0;
  std::int64_t active_per_period = 0;
};

GridShape grid_shape(const spec::Specification& specification) {
  GridShape shape;
  const spec::Time step = specification.base_period();
  const spec::Time period = specification.hyperperiod();
  for (spec::Time t = 0; t < period; t += step) {
    ++shape.ticks_per_period;
    for (const auto& comm : specification.communicators()) {
      if (t % comm.period == 0) {
        ++shape.active_per_period;
        break;
      }
    }
  }
  return shape;
}

/// The reproducible totals of a Monte Carlo campaign: what the aggregate
/// report carries and what a per-trial replay can sum to.
struct CampaignTotals {
  std::int64_t invocations = 0;
  std::int64_t invocation_failures = 0;
  std::int64_t committed_updates = 0;
  std::int64_t vote_divergences = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t remaps_installed = 0;
  std::int64_t repaired_trials = 0;
  std::vector<std::int64_t> updates;
  std::vector<std::int64_t> reliable_updates;
  std::vector<std::int64_t> post_repair_updates;
  std::vector<std::int64_t> post_repair_reliable;

  void add_trial(const sim::SimulationResult& result) {
    invocations += result.invocations;
    invocation_failures += result.invocation_failures;
    committed_updates += result.committed_updates;
    vote_divergences += result.vote_divergences;
    deadline_misses += result.deadline_misses;
    remaps_installed += result.remaps_installed;
    updates.resize(result.comm_stats.size());
    reliable_updates.resize(result.comm_stats.size());
    for (std::size_t c = 0; c < result.comm_stats.size(); ++c) {
      updates[c] += result.comm_stats[c].updates;
      reliable_updates[c] += result.comm_stats[c].reliable_updates;
    }
  }
  void add_controller(const adapt::SelfHealingController& controller) {
    if (!controller.repaired()) return;
    ++repaired_trials;
    const auto& stats = controller.post_repair_stats();
    post_repair_updates.resize(stats.size());
    post_repair_reliable.resize(stats.size());
    for (std::size_t c = 0; c < stats.size(); ++c) {
      post_repair_updates[c] += stats[c].updates;
      post_repair_reliable[c] += stats[c].reliable_updates;
    }
  }
  static CampaignTotals From(const sim::ValidationReport& report) {
    CampaignTotals totals;
    totals.invocations = report.invocations;
    totals.invocation_failures = report.invocation_failures;
    totals.committed_updates = report.committed_updates;
    totals.vote_divergences = report.vote_divergences;
    totals.deadline_misses = report.deadline_misses;
    totals.remaps_installed = report.remaps_installed;
    for (const sim::CommAggregate& comm : report.communicators) {
      totals.updates.push_back(comm.updates);
      totals.reliable_updates.push_back(comm.reliable_updates);
    }
    return totals;
  }
  void add_recovery(const adapt::RecoveryReport& report) {
    repaired_trials = report.repaired_trials;
    for (const adapt::CommRecovery& comm : report.communicators) {
      post_repair_updates.push_back(comm.updates);
      post_repair_reliable.push_back(comm.reliable_updates);
    }
  }
  [[nodiscard]] std::string digest() const {
    std::vector<std::uint64_t> words = {
        static_cast<std::uint64_t>(invocations),
        static_cast<std::uint64_t>(invocation_failures),
        static_cast<std::uint64_t>(committed_updates),
        static_cast<std::uint64_t>(vote_divergences),
        static_cast<std::uint64_t>(deadline_misses),
        static_cast<std::uint64_t>(remaps_installed),
        static_cast<std::uint64_t>(repaired_trials)};
    for (const auto* series : {&updates, &reliable_updates,
                               &post_repair_updates, &post_repair_reliable}) {
      words.push_back(series->size());
      for (const std::int64_t value : *series) {
        words.push_back(static_cast<std::uint64_t>(value));
      }
    }
    return service::format_fingerprint(hash_words(words));
  }
};

/// Per-trial fault seeds exactly as sim::MonteCarloRunner derives them.
std::vector<std::uint64_t> trial_seeds(std::uint64_t base,
                                       std::int64_t trials) {
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(trials));
  SplitMix64 root(base);
  for (auto& seed : seeds) seed = root.next();
  return seeds;
}

// --- forwarding wrappers for the traced replay --------------------------

/// Calls of one kind made into a layer during one trial: their count and
/// summed time. The simulator makes thousands per trial, so they are
/// recorded as one aggregate span each (duration = summed time, bytes =
/// call count) instead of a span per call.
struct CallTally {
  const char* name = "";
  std::int64_t calls = 0;
  std::int64_t ns = 0;

  template <class F>
  auto time(F&& call) {
    ++calls;
    const std::int64_t start = now_ns();
    struct Stop {
      CallTally& tally;
      std::int64_t start;
      ~Stop() { tally.ns += now_ns() - start; }
    } stop{*this, start};
    return call();
  }
  void record(SpanLog& log, std::int64_t request, std::int64_t parent,
              std::int64_t start_ns) const {
    Span span;
    span.request = request;
    span.id = log.new_id();
    span.parent = parent;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = start_ns + ns;
    span.bytes = calls;
    log.add(span);
  }
};

/// Forwards every call the simulator makes into the plant, tallied.
class TracedEnvironment final : public sim::Environment {
 public:
  explicit TracedEnvironment(sim::Environment& inner) : inner_(inner) {}

  spec::Value read_sensor(std::string_view comm, spec::Time now) override {
    return reads.time([&] { return inner_.read_sensor(comm, now); });
  }
  void write_actuator(std::string_view comm, spec::Time now,
                      const spec::Value& value) override {
    writes.time([&] { inner_.write_actuator(comm, now, value); });
  }
  void advance(spec::Time now, spec::Time dt) override {
    advances.time([&] { inner_.advance(now, dt); });
  }
  [[nodiscard]] AdvanceGranularity advance_granularity() const override {
    return inner_.advance_granularity();
  }
  [[nodiscard]] bool parallel_safe() const override {
    return inner_.parallel_safe();
  }

  CallTally reads{"plant.read_sensor"};
  CallTally writes{"plant.write_actuator"};
  CallTally advances{"plant.advance"};

 private:
  sim::Environment& inner_;
};

/// Forwards every callback the simulator makes into the adaptive layer,
/// repair planning (inside on_period_boundary) included, tallied.
class TracedMonitor final : public sim::RuntimeMonitor {
 public:
  explicit TracedMonitor(sim::RuntimeMonitor& inner) : inner_(inner) {}

  void on_invocation(spec::Time now, spec::TaskId task, arch::HostId host,
                     bool success) override {
    calls.time([&] { inner_.on_invocation(now, task, host, success); });
  }
  void on_sensor_update(spec::Time now, spec::CommId comm,
                        arch::SensorId sensor, bool reliable) override {
    calls.time([&] { inner_.on_sensor_update(now, comm, sensor, reliable); });
  }
  void on_update(spec::Time now, spec::CommId comm, bool reliable,
                 int contributors) override {
    calls.time([&] { inner_.on_update(now, comm, reliable, contributors); });
  }
  const impl::Implementation* on_period_boundary(spec::Time now) override {
    return calls.time([&] { return inner_.on_period_boundary(now); });
  }
  const impl::Implementation* on_update_point(spec::Time now) override {
    return calls.time([&] { return inner_.on_update_point(now); });
  }

  CallTally calls{"adapt.monitor"};

 private:
  sim::RuntimeMonitor& inner_;
};

/// Installs a metrics-only obs sink as the process-global sink for its
/// lifetime; the library's existing counters land in `metrics`.
class ScopedCounters {
 public:
  ScopedCounters() : sink_(&metrics_, nullptr) {
    previous_ = obs::set_global_sink(&sink_);
  }
  ~ScopedCounters() { obs::set_global_sink(previous_); }
  ScopedCounters(const ScopedCounters&) = delete;
  ScopedCounters& operator=(const ScopedCounters&) = delete;

  [[nodiscard]] obs::MetricsSnapshot snapshot() const {
    return metrics_.snapshot();
  }

 private:
  obs::MetricsRegistry metrics_;
  obs::Sink sink_;
  obs::Sink* previous_ = nullptr;
};

double ratio(std::int64_t numerator, std::int64_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

// --- workloads ----------------------------------------------------------

/// Per-trial simulator work and campaign trial rate from the obs counters
/// of a traced pass lasting `seconds`.
void add_sim_counters(const obs::MetricsSnapshot& snapshot, double seconds,
                      LayerValues& values) {
  const std::int64_t runs = snapshot.counter("sim.runs");
  for (const auto& [name, counter] :
       {std::pair{"sim.events", "sim.events"},
        std::pair{"sim.ticks_skipped", "sim.ticks_skipped"},
        std::pair{"sim.invocations", "sim.invocations"},
        std::pair{"sim.committed_updates", "sim.updates"},
        std::pair{"sim.vote_divergences", "sim.vote_divergences"},
        std::pair{"sim.queue_allocations", "sim.queue_allocations"},
        std::pair{"sim.queue_resizes", "sim.queue_resizes"}}) {
    values.emplace_back(name, ratio(snapshot.counter(counter), runs));
  }
  values.emplace_back(
      "mc.trials_per_s",
      static_cast<double>(snapshot.counter("sim.trials")) / seconds);
}


struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  int connections = 1;
  int workers = 1;
  int setups = 1;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Generates the inputs from the seed and brings the system to the
  /// state the measured loop starts from. Repeatable after teardown().
  virtual void setup() = 0;
  virtual void teardown() = 0;
  /// One closed-loop measurement of `seconds`; `logs` (one per
  /// connection) receive round-trip spans when non-null, and the
  /// per-operation samples go to open_samples(`samples`).
  virtual RunStats run(double seconds, std::vector<SpanLog>* logs,
                       const std::string& samples) = 0;
  /// Post-run oracles over everything run() produced so far.
  virtual void verify(RunStats& stats) { (void)stats; }
  /// Traced run only: calls into the layers directly, with spans.
  virtual void replay_layers(double seconds, SpanLog& log, RunStats& stats,
                             LayerValues& values) = 0;
  /// Per-layer values read from the obs counters of a traced pass.
  virtual void read_counters(const obs::MetricsSnapshot& snapshot,
                             double seconds, LayerValues& values) = 0;

  [[nodiscard]] virtual std::uint64_t input_digest() const = 0;
  /// Digest of the oracle outputs every run must reproduce.
  [[nodiscard]] virtual std::string output_digest() const = 0;
  /// Simulated specification periods x trials per operation (0 for the
  /// analysis workloads).
  [[nodiscard]] virtual double periods_per_op() const { return 0.0; }
  /// Closed-loop callers, server workers and Monte Carlo threads, for
  /// the run record.
  [[nodiscard]] virtual int callers() const { return 1; }
  [[nodiscard]] virtual int server_workers() const { return 0; }
  [[nodiscard]] virtual unsigned mc_threads() const { return 0; }
};

/// Shared machinery of the workloads that talk to lrtd over its socket:
/// an in-process service::Server on an AF_UNIX socket and one blocking
/// service::Client per connection, each a closed loop.
class LrtdWorkload : public BenchWorkload {
 public:
  explicit LrtdWorkload(const Config& config) : config_(config) {}

  void teardown() override {
    clients_.clear();
    if (server_ != nullptr) {
      server_->Stop();
      // Stop() leaves the listener in its 100-ms poll; a connection wakes
      // it, so the next set-up does not start on a CPU left idle meanwhile.
      (void)service::Client::Connect(server_->socket_path());
      server_->Wait();
      server_.reset();
    }
  }

  RunStats run(double seconds, std::vector<SpanLog>* logs,
               const std::string& samples) override {
    const auto connections = clients_.size();
    std::vector<RunStats> per_connection(connections);
    std::vector<RecordFile> files = open_samples(samples, connections);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const auto loop = [this, start, deadline, logs, &files,
                       &per_connection](std::size_t c) {
      RunStats& stats = per_connection[c];
      SpanLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
      const int connection = static_cast<int>(c);
      do {
        const std::int64_t k = next_index_[c]++;
        const std::string frame = frame_for(connection, k);
        const auto sent = Clock::now();
        std::string response;
        {
          SpanScope span(log, "service.roundtrip", k, 0);
          span.set_bytes(frame.size());
          Result<std::string> reply = clients_[c].call(frame);
          if (!reply.ok()) {
            die("lrtd call failed: " + reply.status().to_string());
          }
          response = std::move(reply).value();
        }
        put_sample(files, c, start, sent, Clock::now());
        ++stats.attempted;
        if (c == 0 && take_corruption(k)) {
          response[response.size() / 2] ^= 1;
        }
        check(connection, k, response, stats);
      } while (Clock::now() < deadline);
    };
    // A single connection runs on the calling thread: a thread started
    // per run would take a malloc arena of its own, and whether it reuses
    // an old one depends on timing, which moves the peak resident set.
    if (connections == 1) {
      loop(0);
    } else {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back(loop, c);
      }
      for (std::thread& thread : threads) thread.join();
    }
    RunStats total;
    for (const RunStats& stats : per_connection) total.merge(stats);
    total.elapsed_s = seconds_since(start);
    end_run();
    return total;
  }

  void read_counters(const obs::MetricsSnapshot& snapshot, double seconds,
                     LayerValues& values) override {
    (void)seconds;
    const std::int64_t requests = snapshot.counter("service.requests");
    const std::int64_t hits = snapshot.counter("service.cache_hits");
    const std::int64_t misses = snapshot.counter("service.cache_misses");
    values.emplace_back("service.cache_hit_ratio", ratio(hits, hits + misses));
    values.emplace_back("service.evictions",
                        ratio(snapshot.counter("service.evictions"),
                              requests));
    values.emplace_back("service.shed",
                        ratio(snapshot.counter("service.shed"), requests));
    values.emplace_back("service.cache_hits", static_cast<double>(hits));
    values.emplace_back("service.cache_misses", static_cast<double>(misses));
    values.emplace_back("service.requests", static_cast<double>(requests));
  }

  [[nodiscard]] int callers() const override { return config_.connections; }
  [[nodiscard]] int server_workers() const override {
    return config_.workers;
  }

 protected:
  /// The k-th request frame of connection c (deterministic).
  [[nodiscard]] virtual std::string frame_for(int connection,
                                              std::int64_t k) const = 0;
  /// Oracle for one response; counts failures into `stats`.
  virtual void check(int connection, std::int64_t k,
                     const std::string& response, RunStats& stats) = 0;
  /// Called once the callers of a run have stopped.
  virtual void end_run() {}

  void start_server() {
    service::ServerOptions options;
    options.socket_path = config_.out_dir + "/lrtd-" +
                          std::to_string(::getpid()) + ".sock";
    options.threads = static_cast<unsigned>(config_.workers);
    server_ = must(service::Server::Start(std::move(options)), "lrtd start");
    clients_.clear();
    for (int c = 0; c < config_.connections; ++c) {
      clients_.push_back(
          must(service::Client::Connect(server_->socket_path()),
               "lrtd connect"));
    }
    next_index_.assign(static_cast<std::size_t>(config_.connections), 0);
  }

  /// Round trip outside any measurement (set-up traffic).
  std::string call(int connection, const std::string& frame) {
    return must(clients_[static_cast<std::size_t>(connection)].call(frame),
                "lrtd set-up call");
  }

  /// Replays `frames` (at most kHandleReplayMax) through a fresh
  /// in-process Service with service.handle spans; returns the responses.
  std::vector<std::string> replay_handle(
      const std::vector<std::string>& frames, SpanLog& log, double seconds) {
    service::Service replica;
    std::vector<std::string> responses;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      service::ServiceReply reply;
      {
        SpanScope span(&log, "service.handle", static_cast<std::int64_t>(i),
                       0);
        span.set_bytes(frames[i].size());
        reply = replica.handle(frames[i]);
      }
      responses.push_back(std::move(reply.frame));
      if (seconds_since(start) > seconds || i + 1 >= kHandleReplayMax) break;
    }
    return responses;
  }

  const Config& config_;
  std::unique_ptr<service::Server> server_;
  std::vector<service::Client> clients_;
  std::vector<std::int64_t> next_index_;
};

/// A design decoded and built through the facade.
struct BuiltDesign {
  lrt::Workload workload;
  impl::Implementation implementation;
};

BuiltDesign build_design(const Design& design) {
  lrt::Workload workload = must(
      lrt::build_workload(
          must(spec::specification_config_from_json(design.spec_json),
               "spec decode"),
          must(arch::architecture_config_from_json(design.arch_json),
               "arch decode")),
      "build_workload");
  impl::Implementation implementation =
      must(lrt::build_implementation(
               workload, must(impl::implementation_config_from_json(
                                  design.impl_json),
                              "impl decode")),
           "build_implementation");
  return {std::move(workload), std::move(implementation)};
}

/// Facade-computed result of a full analyze request, laid out as lrtd
/// answers it: {fingerprint, reliable, unsatisfied_comms, report}.
struct AnalyzeOracle {
  std::string result_json;
  std::string report_json;
};

AnalyzeOracle facade_analyze(const Design& design) {
  const BuiltDesign built = build_design(design);
  const reliability::ReliabilityReport report =
      must(lrt::analyze(built.workload, built.implementation), "analyze");
  std::int64_t unsatisfied = 0;
  for (const auto& verdict : report.verdicts) {
    if (!verdict.satisfied) ++unsatisfied;
  }
  AnalyzeOracle oracle;
  oracle.report_json = reliability::to_json(report);
  JsonWriter json;
  json.begin_object();
  json.key("fingerprint");
  json.value(service::format_fingerprint(built.workload.fingerprint()));
  json.key("reliable");
  json.value(report.reliable);
  json.key("unsatisfied_comms");
  json.value(unsatisfied);
  json.key("report");
  json.raw(oracle.report_json);
  json.end_object();
  oracle.result_json = std::move(json).str();
  return oracle;
}

std::string request_id(char prefix, int connection, std::int64_t k) {
  return std::string(1, prefix) + std::to_string(connection) + "-" +
         std::to_string(k);
}

// lrtd_cold ---------------------------------------------------------------

class LrtdColdWorkload final : public LrtdWorkload {
 public:
  using LrtdWorkload::LrtdWorkload;

  void setup() override {
    // Each connection rotates over its own designs, more than the service
    // keeps resident, so even a connection running alone evicts every
    // design before it comes round again: every request misses. Three
    // times the resident bound averages the run over many designs.
    rotation_ = 3 * service::ServiceOptions{}.max_resident_workloads + 1;
    Xoshiro256 rng(config_.seed);
    designs_.clear();
    oracles_.clear();
    for (int c = 0; c < config_.connections; ++c) {
      for (std::size_t d = 0; d < rotation_; ++d) {
        designs_.push_back(c == 0 && d == 0 ? three_tank_design()
                                            : generated_design(rng));
        oracles_.push_back(facade_analyze(designs_.back()));
      }
    }
    start_server();
    // Warm the transport and allocator with one full rotation per
    // connection (their responses are checked like any other).
    RunStats warmup;
    for (int c = 0; c < config_.connections; ++c) {
      for (std::size_t d = 0; d < rotation_; ++d) {
        const std::int64_t k = next_index_[static_cast<std::size_t>(c)]++;
        check(c, k, call(c, frame_for(c, k)), warmup);
      }
    }
    if (warmup.failed() != 0) die("lrtd_cold warm-up responses are wrong");
  }

  void replay_layers(double seconds, SpanLog& log, RunStats& stats,
                     LayerValues& values) override {
    // The logged request stream of connection 0, replayed twice: whole
    // through Service::handle, then as the direct layer calls it makes.
    std::vector<std::string> frames;
    for (std::int64_t k = 0; k < next_index_[0]; ++k) {
      frames.push_back(frame_for(0, k));
    }
    const std::vector<std::string> handled =
        replay_handle(frames, log, seconds / 2);
    for (std::size_t k = 0; k < handled.size(); ++k) {
      ++stats.attempted;
      check(0, static_cast<std::int64_t>(k), handled[k], stats);
    }
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < frames.size(); ++k) {
      const auto request = static_cast<std::int64_t>(k);
      SpanScope root(&log, "replay.request", request, 0);
      const std::int64_t parent = root.id();
      JsonValue document;
      {
        SpanScope span(&log, "json.parse", request, parent);
        span.set_bytes(frames[k].size());
        document = must(parse_json(frames[k]), "parse_json");
      }
      spec::SpecificationConfig spec_config;
      {
        const SpanScope span(&log, "codec.spec_decode", request, parent);
        spec_config = must(
            spec::specification_config_from_json(*document.find("spec")),
            "spec decode");
      }
      arch::ArchitectureConfig arch_config;
      {
        const SpanScope span(&log, "codec.arch_decode", request, parent);
        arch_config = must(
            arch::architecture_config_from_json(*document.find("arch")),
            "arch decode");
      }
      impl::ImplementationConfig impl_config;
      {
        const SpanScope span(&log, "codec.impl_decode", request, parent);
        impl_config = must(impl::implementation_config_from_json(
                               *document.find("implementation")),
                           "impl decode");
      }
      std::uint64_t fingerprint = 0;
      {
        const SpanScope span(&log, "lrt.fingerprint", request, parent);
        fingerprint = lrt::fingerprint(spec_config, arch_config);
      }
      std::optional<lrt::Workload> workload;
      {
        const SpanScope span(&log, "lrt.build_workload", request, parent);
        workload = must(lrt::build_workload(std::move(spec_config),
                                            std::move(arch_config)),
                        "build_workload");
      }
      bool memory_free = false;
      bool cycle_safe = false;
      {
        const SpanScope span(&log, "spec.graph", request, parent);
        const spec::SpecificationGraph graph(*workload->spec);
        memory_free = graph.is_memory_free();
        cycle_safe = graph.is_cycle_safe();
      }
      std::optional<impl::Implementation> implementation;
      {
        const SpanScope span(&log, "lrt.build_implementation", request,
                             parent);
        implementation = must(
            lrt::build_implementation(*workload, std::move(impl_config)),
            "build_implementation");
      }
      std::optional<reliability::ReliabilityReport> report;
      {
        const SpanScope span(&log, "lrt.analyze", request, parent);
        report = must(lrt::analyze(*workload, *implementation), "analyze");
      }
      std::string report_json;
      {
        SpanScope span(&log, "reliability.report_json", request, parent);
        report_json = reliability::to_json(*report);
        span.set_bytes(report_json.size());
      }
      // The direct calls must reproduce the bytes the service returned.
      if (take_replay_corruption()) report_json[report_json.size() / 2] ^= 1;
      const AnalyzeOracle& oracle = oracles_[design_index(0, request)];
      ++stats.attempted;
      if (report_json != oracle.report_json ||
          report->memory_free != memory_free ||
          report->cycle_safe != cycle_safe ||
          fingerprint != workload->fingerprint()) {
        root.fail();
        ++stats.wrong;
      }
      if (seconds_since(start) > seconds / 2 || log.full()) break;
    }
    add_frame_sizes(values);
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    std::vector<std::string> parts;
    for (const Design& design : designs_) {
      parts.push_back(design.spec_json);
      parts.push_back(design.arch_json);
      parts.push_back(design.impl_json);
    }
    return digest_strings(parts);
  }
  [[nodiscard]] std::string output_digest() const override {
    std::vector<std::string> parts;
    for (const AnalyzeOracle& oracle : oracles_) {
      parts.push_back(oracle.result_json);
    }
    return service::format_fingerprint(digest_strings(parts));
  }

 private:
  [[nodiscard]] std::size_t design_index(int connection,
                                         std::int64_t k) const {
    return static_cast<std::size_t>(connection) * rotation_ +
           static_cast<std::size_t>(k) % rotation_;
  }
  [[nodiscard]] std::string frame_for(int connection,
                                      std::int64_t k) const override {
    return analyze_frame(designs_[design_index(connection, k)],
                         request_id('c', connection, k));
  }
  void check(int connection, std::int64_t k, const std::string& response,
             RunStats& stats) override {
    judge(response,
          service::make_ok_frame(
              request_id('c', connection, k),
              oracles_[design_index(connection, k)].result_json),
          stats);
  }
  void add_frame_sizes(LayerValues& values) const {
    const std::size_t d = design_index(0, 1);
    values.emplace_back("frame.request_bytes",
                        static_cast<double>(frame_for(0, 1).size()));
    values.emplace_back(
        "frame.response_bytes",
        static_cast<double>(service::make_ok_frame(request_id('c', 0, 1),
                                                   oracles_[d].result_json)
                                .size()));
  }

  std::size_t rotation_ = 1;
  std::vector<Design> designs_;
  std::vector<AnalyzeOracle> oracles_;
};

// lrtd_edit ---------------------------------------------------------------

constexpr std::size_t kMutationTable = 4096;

class LrtdEditWorkload final : public LrtdWorkload {
 public:
  using LrtdWorkload::LrtdWorkload;

  void setup() override {
    Xoshiro256 rng(config_.seed);
    designs_.clear();
    fingerprints_.clear();
    mutations_.clear();
    for (int c = 0; c < config_.connections; ++c) {
      designs_.push_back(generated_design(rng));
      const Design& design = designs_.back();
      fingerprints_.push_back(
          service::format_fingerprint(lrt::fingerprint(
              must(spec::specification_config_from_json(design.spec_json),
                   "spec decode"),
              must(arch::architecture_config_from_json(design.arch_json),
                   "arch decode"))));
      std::vector<Mutation> table(kMutationTable);
      for (Mutation& mutation : table) {
        mutation.task =
            static_cast<std::size_t>(rng.next_below(design.tasks.size()));
        // A nonempty host subset, ascending by host index.
        const std::uint64_t mask =
            1 + rng.next_below((std::uint64_t{1} << design.hosts.size()) - 1);
        for (std::size_t h = 0; h < design.hosts.size(); ++h) {
          if ((mask >> h) & 1U) mutation.hosts.push_back(design.hosts[h]);
        }
      }
      mutations_.push_back(std::move(table));
    }
    start_server();
    // Prime: each connection makes its design resident with one full
    // analyze, then checks the hit path with a few deltas. They are few
    // because serial round trips on an otherwise idle server mostly time
    // how fast the host wakes idle CPUs; the process is warm already.
    constexpr int kPrimeDeltas = 16;
    responses_.clear();
    for (int c = 0; c < config_.connections; ++c) {
      responses_.emplace_back(responses_path(c), "wb");
    }
    for (int c = 0; c < config_.connections; ++c) {
      const std::string primed = call(c, prime_frame(c));
      if (primed.find(fingerprints_[static_cast<std::size_t>(c)]) ==
          std::string::npos) {
        die("lrtd_edit prime failed: " + primed.substr(0, 200));
      }
      for (int w = 0; w < kPrimeDeltas; ++w) {
        const std::int64_t k = next_index_[static_cast<std::size_t>(c)]++;
        RunStats warmup;
        check(c, k, call(c, frame_for(c, k)), warmup);
      }
    }
    end_run();
  }

  void verify(RunStats& stats) override {
    // Each connection's response stream must equal a serial in-process
    // Service::handle replay of the same frames.
    for (int c = 0; c < config_.connections; ++c) {
      service::Service replica;
      (void)replica.handle(prime_frame(c));
      RecordFile hashes(responses_path(c), "rb");
      std::int64_t k = 0;
      for (std::uint64_t hash = 0; hashes.get(hash); ++k) {
        if (hash_bytes(replica.handle(frame_for(c, k)).frame) != hash) {
          ++stats.wrong;
        }
      }
      if (k != next_index_[static_cast<std::size_t>(c)]) {
        die("lrtd_edit response log is incomplete");
      }
    }
  }

  void replay_layers(double seconds, SpanLog& log, RunStats& stats,
                     LayerValues& values) override {
    // Connection 0's logged stream: whole through Service::handle (prime
    // first), then as the direct calls of the hit path.
    const std::int64_t logged = std::min<std::int64_t>(
        next_index_[0], static_cast<std::int64_t>(kHandleReplayMax));
    std::vector<std::string> frames = {prime_frame(0)};
    std::vector<std::uint64_t> hashes;
    RecordFile logged_hashes(responses_path(0), "rb");
    for (std::uint64_t hash = 0;
         static_cast<std::int64_t>(hashes.size()) < logged &&
         logged_hashes.get(hash);) {
      frames.push_back(frame_for(0, static_cast<std::int64_t>(hashes.size())));
      hashes.push_back(hash);
    }
    const std::vector<std::string> handled =
        replay_handle(frames, log, seconds / 2);
    for (std::size_t i = 1; i < handled.size(); ++i) {
      ++stats.attempted;
      if (hash_bytes(handled[i]) != hashes[i - 1]) ++stats.wrong;
    }

    const BuiltDesign built = build_design(designs_[0]);
    reliability::SrgEvaluator evaluator = must(
        reliability::SrgEvaluator::FromImplementation(built.implementation),
        "SrgEvaluator");
    const spec::Specification& spec = *built.workload.spec;
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < hashes.size(); ++k) {
      const auto request = static_cast<std::int64_t>(k);
      const std::string frame = frame_for(0, request);
      SpanScope root(&log, "replay.request", request, 0);
      JsonValue document;
      {
        SpanScope span(&log, "json.parse", request, root.id());
        span.set_bytes(frame.size());
        document = must(parse_json(frame), "parse_json");
      }
      const JsonValue& mutate = *document.find("mutate");
      const spec::TaskId task = *spec.find_task(mutate.find("task")->string);
      std::vector<arch::HostId> hosts;
      for (const JsonValue& host : mutate.find("hosts")->array) {
        hosts.push_back(*built.workload.arch->find_host(host.string));
      }
      std::sort(hosts.begin(), hosts.end());
      {
        const SpanScope span(&log, "reliability.set_task_hosts", request,
                             root.id());
        evaluator.set_task_hosts(task, hosts);
      }
      std::int64_t unsatisfied = 0;
      for (spec::CommId c = 0;
           c < static_cast<spec::CommId>(spec.communicators().size()); ++c) {
        if (!evaluator.satisfied(c)) ++unsatisfied;
      }
      // The verdict computed by direct calls must be the byte stream the
      // service answered.
      JsonWriter json;
      json.begin_object();
      json.key("fingerprint");
      json.value(fingerprints_[0]);
      json.key("reliable");
      json.value(evaluator.all_lrcs_satisfied());
      json.key("unsatisfied_comms");
      json.value(unsatisfied);
      json.end_object();
      std::string verdict = service::make_ok_frame(
          request_id('e', 0, request), std::move(json).str());
      if (take_replay_corruption()) verdict[verdict.size() / 2] ^= 1;
      ++stats.attempted;
      if (hash_bytes(verdict) != hashes[k]) {
        root.fail();
        ++stats.wrong;
      }
      if (seconds_since(start) > seconds / 2 || log.full()) break;
    }
    values.emplace_back("frame.request_bytes",
                        static_cast<double>(frame_for(0, 0).size()));
    values.emplace_back("frame.response_bytes",
                        static_cast<double>(handled.size() > 1
                                                ? handled[1].size()
                                                : 0));
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    std::vector<std::string> parts;
    for (std::size_t c = 0; c < designs_.size(); ++c) {
      parts.push_back(designs_[c].spec_json);
      parts.push_back(designs_[c].arch_json);
      parts.push_back(designs_[c].impl_json);
      for (const Mutation& mutation : mutations_[c]) {
        parts.push_back(std::to_string(mutation.task));
        for (const std::string& host : mutation.hosts) parts.push_back(host);
      }
    }
    return digest_strings(parts);
  }
  [[nodiscard]] std::string output_digest() const override {
    // The primed designs' fingerprints; the stream itself is checked by
    // the serial replay.
    return service::format_fingerprint(digest_strings(fingerprints_));
  }

 private:
  [[nodiscard]] std::string prime_frame(int connection) const {
    return analyze_frame(designs_[static_cast<std::size_t>(connection)],
                         request_id('p', connection, 0));
  }
  [[nodiscard]] std::string frame_for(int connection,
                                      std::int64_t k) const override {
    const auto c = static_cast<std::size_t>(connection);
    return mutate_frame(
        designs_[c], fingerprints_[c], request_id('e', connection, k),
        mutations_[c][static_cast<std::size_t>(k) % kMutationTable]);
  }
  void check(int connection, std::int64_t k, const std::string& response,
             RunStats& stats) override {
    // Requests of a connection are numbered and answered in order, so the
    // k-th record of its log is the hash of response k.
    (void)k;
    responses_[static_cast<std::size_t>(connection)].put(
        hash_bytes(response));
    // Cheap online check; the stream itself is verified by the replay.
    if (response.find("\"ok\":true") == std::string::npos) {
      judge(response, "", stats);
    }
  }
  void end_run() override {
    for (RecordFile& file : responses_) file.flush();
  }
  [[nodiscard]] std::string responses_path(int connection) const {
    return config_.out_dir + "/responses-c" + std::to_string(connection) +
           ".u64";
  }

  std::vector<Design> designs_;
  std::vector<std::string> fingerprints_;
  std::vector<std::vector<Mutation>> mutations_;
  /// hash_bytes of every response, per connection, in request order.
  std::vector<RecordFile> responses_;
};

// sim_multirate -----------------------------------------------------------

/// A multi-rate design of three host-disjoint groups whose two
/// communicator periods are coprime (P - 1 and P ticks, P = 60), so the
/// harmonic grid step is one tick and only about 2/P of the grid ticks
/// carry an access. The shape is fixed, so every design costs the same
/// and a run's figures do not depend on which designs the seed drew; the
/// seed draws the reliabilities.
Design multirate_design(Xoshiro256& rng) {
  constexpr spec::Time period = 60;
  const int groups = 3;
  spec::SpecificationConfig config;
  config.name = "multirate";
  arch::ArchitectureConfig arch_config;
  impl::ImplementationConfig impl_config;
  for (int g = 0; g < groups; ++g) {
    const std::string n = std::to_string(g);
    config.communicators.push_back({"in" + n, spec::ValueType::kReal,
                                    spec::Value::real(0.0), period - 1, 0.5});
    config.communicators.push_back({"out" + n, spec::ValueType::kReal,
                                    spec::Value::real(0.0), period, 0.5});
    spec::SpecificationConfig::TaskConfig task;
    task.name = "task" + n;
    task.inputs = {{"in" + n, 1}};
    task.outputs = {{"out" + n, 1}};
    config.tasks.push_back(std::move(task));
    arch_config.hosts.push_back({"h" + n, rng.uniform(0.95, 0.999)});
    arch_config.sensors.push_back({"s" + n, rng.uniform(0.95, 0.999)});
    impl_config.task_mappings.push_back({"task" + n, {"h" + n}});
    impl_config.sensor_bindings.push_back({"in" + n, "s" + n});
  }
  Design design;
  design.spec_json = spec::to_json(config);
  design.arch_json = arch::to_json(arch_config);
  design.impl_json = impl::to_json(impl_config);
  return design;
}

/// Structural equality of two parsed documents (numbers compared exactly).
bool same_json(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind || a.boolean != b.boolean || a.number != b.number ||
      a.string != b.string || a.array.size() != b.array.size() ||
      a.object.size() != b.object.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.array.size(); ++i) {
    if (!same_json(a.array[i], b.array[i])) return false;
  }
  for (std::size_t i = 0; i < a.object.size(); ++i) {
    if (a.object[i].first != b.object[i].first ||
        !same_json(a.object[i].second, b.object[i].second)) {
      return false;
    }
  }
  return true;
}

constexpr int kMultirateDesigns = 8;
constexpr int kMultirateVariants = 2 * kMultirateDesigns;
constexpr std::int64_t kMultirateTrials = 2;
constexpr std::int64_t kMultiratePeriods = 1;

class SimMultirateWorkload final : public LrtdWorkload {
 public:
  using LrtdWorkload::LrtdWorkload;

  void setup() override {
    Xoshiro256 rng(config_.seed);
    designs_.clear();
    built_.clear();
    for (int d = 0; d < kMultirateDesigns; ++d) {
      designs_.push_back(multirate_design(rng));
      built_.push_back(build_design(designs_.back()));
    }
    shapes_.clear();
    SplitMix64 seeds(config_.seed);
    for (int v = 0; v < kMultirateVariants; ++v) {
      // Campaign seeds stay below 2^53 so the wire's JSON number is exact.
      shapes_.push_back({kMultirateTrials, kMultiratePeriods,
                         seeds.next() >> 11});
    }
    start_server();
    // One response per variant, checked field by field against an
    // in-process lrt::validate with the same seed; later responses must
    // repeat its bytes.
    expected_.clear();
    facade_reports_.clear();
    for (int v = 0; v < kMultirateVariants; ++v) {
      const CampaignShape& shape = shapes_[static_cast<std::size_t>(v)];
      sim::MonteCarloOptions options;
      options.trials = shape.trials;
      options.seed = shape.seed;
      options.simulation.periods = shape.periods;
      const auto d = static_cast<std::size_t>(v % kMultirateDesigns);
      const sim::ValidationReport report =
          must(lrt::validate(built_[d].workload, built_[d].implementation,
                             options),
               "lrt::validate");
      facade_reports_.push_back(report);
      const std::string id = "setup-" + std::to_string(v);
      const std::string response =
          call(0, validate_frame(designs_[d], id, shape));
      JsonValue facade = must(parse_json(sim::to_json(report)), "to_json");
      std::erase_if(facade.object, [](const auto& member) {
        return member.first == "threads" ||
               member.first == "elapsed_seconds" ||
               member.first == "trials_per_second";
      });
      const JsonValue wire = must(parse_json(response), "response");
      const JsonValue* result = wire.find("result");
      const JsonValue* validation =
          result != nullptr ? result->find("validation") : nullptr;
      if (validation == nullptr || !same_json(*validation, facade)) {
        die("sim_multirate: lrtd validate differs from lrt::validate: " +
            response.substr(0, 300));
      }
      // The result bytes sit between the envelope head and its final '}'.
      const std::string head = service::make_ok_frame(id, "");
      expected_.push_back(response.substr(head.size() - 1,
                                          response.size() - head.size()));
      if (service::make_ok_frame(id, expected_.back()) != response) {
        die("sim_multirate: unexpected response envelope");
      }
    }
  }

  void read_counters(const obs::MetricsSnapshot& snapshot, double seconds,
                     LayerValues& values) override {
    LrtdWorkload::read_counters(snapshot, seconds, values);
    add_sim_counters(snapshot, seconds, values);
  }

  void replay_layers(double seconds, SpanLog& log, RunStats& stats,
                     LayerValues& values) override {
    // Variant 0's campaign, trial by trial through lrt::simulate; the
    // trials must sum to the facade campaign's totals.
    const CampaignShape& shape = shapes_[0];
    const std::vector<std::uint64_t> seeds =
        trial_seeds(shape.seed, shape.trials);
    const Clock::time_point start = Clock::now();
    std::int64_t request = 0;
    do {
      CampaignTotals totals;
      for (std::size_t t = 0; t < seeds.size(); ++t) {
        lrt::SimulateOptions options;
        options.simulation.periods = shape.periods;
        options.simulation.faults.seed = seeds[t];
        SpanScope span(&log, "sim.trial", request, 0);
        totals.add_trial(must(
            lrt::simulate(built_[0].workload, built_[0].implementation,
                          options),
            "simulate"));
      }
      std::string digest = totals.digest();
      if (take_replay_corruption()) digest[0] ^= 1;
      ++stats.attempted;
      if (digest != CampaignTotals::From(facade_reports_[0]).digest()) {
        ++stats.wrong;
      }
      ++request;
    } while (seconds_since(start) < seconds && !log.full());
    const GridShape grid = grid_shape(*built_[0].workload.spec);
    values.emplace_back("sim.active_instant_share",
                        ratio(grid.active_per_period, grid.ticks_per_period));
    values.emplace_back(
        "sim.active_instants_per_trial",
        static_cast<double>(grid.active_per_period * shape.periods));
    values.emplace_back("frame.request_bytes",
                        static_cast<double>(frame_for(0, 0).size()));
    values.emplace_back(
        "frame.response_bytes",
        static_cast<double>(service::make_ok_frame(request_id('v', 0, 0),
                                                   expected_[0])
                                .size()));
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    std::vector<std::string> parts;
    for (const Design& design : designs_) {
      parts.push_back(design.spec_json);
      parts.push_back(design.arch_json);
      parts.push_back(design.impl_json);
    }
    for (const CampaignShape& shape : shapes_) {
      parts.push_back(std::to_string(shape.seed));
    }
    return digest_strings(parts);
  }
  [[nodiscard]] std::string output_digest() const override {
    return service::format_fingerprint(digest_strings(expected_));
  }
  [[nodiscard]] double periods_per_op() const override {
    return static_cast<double>(kMultirateTrials * kMultiratePeriods);
  }
  /// lrtd runs each validate campaign on a single thread.
  [[nodiscard]] unsigned mc_threads() const override { return 1; }

 private:
  [[nodiscard]] std::size_t variant(int connection, std::int64_t k) const {
    return static_cast<std::size_t>(k + connection) % shapes_.size();
  }
  [[nodiscard]] std::string frame_for(int connection,
                                      std::int64_t k) const override {
    const std::size_t v = variant(connection, k);
    return validate_frame(designs_[v % kMultirateDesigns],
                          request_id('v', connection, k), shapes_[v]);
  }
  void check(int connection, std::int64_t k, const std::string& response,
             RunStats& stats) override {
    judge(response,
          service::make_ok_frame(request_id('v', connection, k),
                                 expected_[variant(connection, k)]),
          stats);
  }

  std::vector<Design> designs_;
  std::vector<BuiltDesign> built_;
  std::vector<CampaignShape> shapes_;
  std::vector<std::string> expected_;
  std::vector<sim::ValidationReport> facade_reports_;
};

// sim_3ts -----------------------------------------------------------------

constexpr arch::HostId kH1 = 0;
constexpr std::int64_t k3tsTrials = 4;
constexpr std::int64_t k3tsPeriods = 100;
constexpr int k3tsWarmupCampaigns = 16;
/// Campaigns whose post-repair evidence verify() pools. A fixed count
/// keeps the gate's power independent of throughput: the counting starts
/// at the repair commit while inputs still carry values from the dead
/// host, which leaves a small transient deficit (about 6e-4 on r1 at 100
/// periods) that unbounded evidence would eventually reject.
constexpr std::int64_t k3tsPooledCampaigns = 1000;

class Sim3tsWorkload final : public BenchWorkload {
 public:
  explicit Sim3tsWorkload(const Config& config) : config_(config) {}

  void setup() override {
    system_ = must(plant::make_three_tank_system(three_tank_scenario()),
                   "3TS build");
    workload_ = lrt::borrow_workload(*system_.specification,
                                     *system_.architecture);
    healing_ = adapt::SelfHealingOptions{};
    // As examples/self_healing: exhaustive repair synthesis.
    healing_.repair.strategy = synth::SynthesisOptions::Strategy::kExhaustive;
    campaign_seeds_ = SplitMix64(config_.seed);
    next_campaign_ = 0;
    if (!digests_) {
      // Kept across set-ups: every set-up replays the same campaigns.
      digests_.emplace(digests_path(), "wb");
      recorded_ = 0;
    }
    pooled_.clear();
    campaigns_ = 0;
    campaign_alarms_ = 0;
    // Campaign 0, run k3tsWarmupCampaigns times, warms the allocator, the
    // plant code paths and the Monte Carlo threads; every rerun must
    // repeat its digest.
    RunStats warmup;
    std::string first;
    for (int i = 0; i < k3tsWarmupCampaigns; ++i) {
      campaign_seeds_ = SplitMix64(config_.seed);
      next_campaign_ = 0;
      const std::string digest = run_campaign(warmup, nullptr, nullptr);
      if (i == 0) first = digest;
      if (digest != first) ++warmup.wrong;
    }
    if (warmup.failed() != 0) die("sim_3ts warm-up campaign failed its gates");
    pooled_.clear();
    campaigns_ = 0;
    campaign_alarms_ = 0;
  }
  void teardown() override {}

  RunStats run(double seconds, std::vector<SpanLog>* logs,
               const std::string& samples) override {
    SpanLog* log = logs != nullptr ? &(*logs)[0] : nullptr;
    // Every run replays the same campaign sequence after the warm-up one,
    // so campaign i of a later run must reproduce the digest recorded by
    // the first run that reached it (read back in order).
    campaign_seeds_ = SplitMix64(config_.seed);
    (void)campaign_seeds_.next();
    next_campaign_ = 1;
    digests_->flush();
    RecordFile recorded(digests_path(), "rb");
    std::vector<RecordFile> files = open_samples(samples, 1);
    RunStats stats;
    const Clock::time_point start = Clock::now();
    do {
      const auto begun = Clock::now();
      run_campaign(stats, log, &recorded);
      put_sample(files, 0, start, begun, Clock::now());
    } while (seconds_since(start) < seconds);
    stats.elapsed_s = seconds_since(start);
    return stats;
  }

  void replay_layers(double seconds, SpanLog& log, RunStats& stats,
                     LayerValues& values) override {
    // The first measured campaign, trial by trial through lrt::simulate
    // with the plant and the controller behind forwarding wrappers; its
    // totals must equal the campaign's.
    const std::uint64_t seed = first_measured_seed_;
    const std::vector<std::uint64_t> seeds = trial_seeds(seed, k3tsTrials);
    std::int64_t advance_calls = 0;
    std::int64_t sensor_reads = 0;
    std::int64_t actuator_writes = 0;
    std::int64_t trials = 0;
    std::int64_t repairs = 0;
    const Clock::time_point start = Clock::now();
    std::int64_t request = 0;
    do {
      CampaignTotals totals;
      for (std::size_t t = 0; t < seeds.size(); ++t) {
        SpanScope trial(&log, "sim.trial", request, 0);
        const std::int64_t trial_start = now_ns();
        plant::ThreeTankEnvironment plant_env = make_environment();
        adapt::SelfHealingController controller(*system_.implementation,
                                                healing_);
        TracedEnvironment env(plant_env);
        TracedMonitor monitor(controller);
        lrt::SimulateOptions options;
        options.simulation = campaign_options(seed).simulation;
        options.simulation.faults.seed = seeds[t];
        options.simulation.monitor = &monitor;
        options.environment = &env;
        totals.add_trial(must(lrt::simulate(workload_,
                                            *system_.implementation, options),
                              "simulate"));
        totals.add_controller(controller);
        for (const CallTally* tally :
             {&env.reads, &env.writes, &env.advances, &monitor.calls}) {
          tally->record(log, request, trial.id(), trial_start);
        }
        advance_calls += env.advances.calls;
        sensor_reads += env.reads.calls;
        actuator_writes += env.writes.calls;
        repairs += static_cast<std::int64_t>(controller.repairs().size());
        ++trials;
      }
      std::string digest = totals.digest();
      if (take_replay_corruption()) digest[0] ^= 1;
      ++stats.attempted;
      if (digest != first_measured_digest_) ++stats.wrong;
      ++request;
    } while (seconds_since(start) < seconds * 0.8 && !log.full());

    // Repair planning alone: the exhaustive synthesis self-healing runs
    // on the survivor platform once h1 is dead.
    const std::vector<arch::HostId> dead = {kH1};
    const Clock::time_point plan_start = Clock::now();
    do {
      SpanScope span(&log, "synth.plan", request++, 0);
      const adapt::RepairPlan plan = must(
          adapt::plan_repair(*system_.implementation, dead, healing_.repair),
          "plan_repair");
      ++stats.attempted;
      if (!plan.feasible || !plan.shed_communicators.empty()) {
        span.fail();
        ++stats.wrong;
      }
    } while (seconds_since(plan_start) < seconds * 0.2);

    const GridShape grid = grid_shape(*system_.specification);
    values.emplace_back("sim.active_instant_share",
                        ratio(grid.active_per_period, grid.ticks_per_period));
    values.emplace_back(
        "sim.active_instants_per_trial",
        static_cast<double>(grid.active_per_period * k3tsPeriods));
    values.emplace_back("plant.advance_calls", ratio(advance_calls, trials));
    values.emplace_back("plant.sensor_reads", ratio(sensor_reads, trials));
    values.emplace_back("plant.actuator_writes",
                        ratio(actuator_writes, trials));
    values.emplace_back("adapt.repairs_installed", ratio(repairs, trials));
    values.emplace_back("adapt.campaign_alarm_ratio",
                        ratio(campaign_alarms_, campaigns_));
  }

  void read_counters(const obs::MetricsSnapshot& snapshot, double seconds,
                     LayerValues& values) override {
    add_sim_counters(snapshot, seconds, values);
    const std::int64_t runs = snapshot.counter("synth.runs");
    for (const char* name :
         {"synth.candidates", "synth.full_evals", "synth.prunes"}) {
      values.emplace_back(name, ratio(snapshot.counter(name), runs));
    }
  }

  [[nodiscard]] std::uint64_t input_digest() const override {
    SplitMix64 seeds(config_.seed);
    std::vector<std::string> parts = {three_tank_design().spec_json,
                                      std::to_string(k3tsTrials),
                                      std::to_string(k3tsPeriods)};
    for (int i = 0; i < 16; ++i) parts.push_back(std::to_string(seeds.next()));
    return digest_strings(parts);
  }
  [[nodiscard]] std::string output_digest() const override {
    return first_measured_digest_;
  }
  [[nodiscard]] double periods_per_op() const override {
    return static_cast<double>(k3tsTrials * k3tsPeriods);
  }
  [[nodiscard]] unsigned mc_threads() const override {
    return resolved_threads_;
  }

 private:
  static plant::ThreeTankEnvironment make_environment() {
    return plant::ThreeTankEnvironment(plant::ThreeTankParams{}, 0.40, 0.30);
  }

  /// The self_healing example's campaign: h1 unplugged permanently at a
  /// fifth of the horizon, a ThreeTankEnvironment per trial.
  [[nodiscard]] sim::MonteCarloOptions campaign_options(
      std::uint64_t seed) const {
    sim::MonteCarloOptions mc;
    mc.trials = k3tsTrials;
    mc.seed = seed;
    // One trial at a time: a campaign then waits for no straggler thread
    // that a shared host happened to preempt.
    mc.threads = 1;
    mc.simulation.periods = k3tsPeriods;
    mc.simulation.faults.host_events.push_back(
        {k3tsPeriods / 5 * system_.specification->hyperperiod(), kH1, false});
    mc.simulation.actuator_comms = {"u1", "u2"};
    mc.environment_factory = [] {
      return std::make_unique<plant::ThreeTankEnvironment>(
          make_environment());
    };
    return mc;
  }

  [[nodiscard]] std::string digests_path() const {
    return config_.out_dir + "/campaigns.u64";
  }

  /// One recovery-validation campaign (examples/self_healing part 2).
  /// Its exact gates are checked here: every trial repaired, nothing
  /// shed, no trial failed, and the same digest whenever campaign i is
  /// run again (`recorded` reads the digests of campaigns 1, 2, ... in
  /// order; null for the set-up's campaign 0, which set-up checks). Its
  /// statistical verdicts are pooled for verify().
  std::string run_campaign(RunStats& stats, SpanLog* log,
                           RecordFile* recorded) {
    const std::int64_t index = next_campaign_++;
    const std::uint64_t seed = campaign_seeds_.next();
    adapt::RecoveryValidationOptions options;
    options.monte_carlo = campaign_options(seed);
    options.controller = healing_;
    SpanScope span(log, "mc.campaign", index, 0);
    adapt::RecoveryReport report =
        must(adapt::RecoveryValidator(options).run(*system_.implementation),
             "recovery campaign");
    if (take_corruption(index)) --report.repaired_trials;
    resolved_threads_ = report.monte_carlo.threads;
    ++stats.attempted;
    CampaignTotals totals = CampaignTotals::From(report.monte_carlo);
    totals.add_recovery(report);
    const std::string digest = totals.digest();
    bool same = true;
    if (recorded != nullptr && index <= recorded_) {
      std::uint64_t first = 0;
      same = recorded->get(first) && first == hash_bytes(digest);
    } else {
      // A campaign's evidence is pooled once, however often it reruns.
      if (recorded != nullptr) {
        digests_->put(hash_bytes(digest));
        recorded_ = index;
      }
      ++campaigns_;
      if (!report.recovery_validated) ++campaign_alarms_;
      if (campaigns_ <= k3tsPooledCampaigns) pool(report);
    }
    if (index == 1) {
      first_measured_seed_ = seed;
      first_measured_digest_ = digest;
    }
    if (!same || report.repaired_trials != k3tsTrials ||
        !report.shed_communicators.empty() ||
        report.monte_carlo.failed_trials != 0) {
      ++stats.wrong;
      span.fail();
    }
    return digest;
  }

  /// Post-repair update counts per communicator, pooled over the
  /// campaigns verify() tests.
  struct Pooled {
    std::string name;
    std::int64_t updates = 0;
    std::int64_t reliable = 0;
    double reanalyzed_srg = 1.0;
    double lrc = 0.0;  ///< 0 for a communicator the repair shed
  };

  void pool(const adapt::RecoveryReport& report) {
    const std::size_t comms = report.communicators.size();
    if (pooled_.empty()) {
      for (const adapt::CommRecovery& recovery : report.communicators) {
        pooled_.push_back({recovery.name, 0, 0, recovery.reanalyzed_srg,
                           recovery.shed ? 0.0 : recovery.lrc});
      }
    }
    for (std::size_t c = 0; c < comms; ++c) {
      pooled_[c].updates += report.communicators[c].updates;
      pooled_[c].reliable += report.communicators[c].reliable_updates;
    }
  }

 public:
  /// self_healing's statistical gate — recovery validated: post-repair
  /// reliability meets mu_c and the re-analyzed lambda_c of every unshed
  /// communicator — on the evidence pooled over the first
  /// k3tsPooledCampaigns new campaigns since set-up. One campaign's
  /// verdict is a 99% Wilson test per communicator; repeated over
  /// thousands of campaigns it alarms on some of them even when the
  /// pooled evidence sits on lambda_c, so the pooled test uses z = 5
  /// (family-wise over many runs) and the per-campaign alarm share is
  /// reported as a layer value.
  void verify(RunStats& stats) override {
    constexpr double kFamilyZ = 5.0;
    for (const Pooled& comm : pooled_) {
      const double high =
          sim::wilson_interval(comm.reliable, comm.updates, kFamilyZ).high;
      if (high < comm.reanalyzed_srg || high < comm.lrc) {
        std::fprintf(stderr,
                     "e2ebench: sim_3ts %s: pooled post-repair reliability "
                     "%lld/%lld below lambda %.9f or mu %.9f\n",
                     comm.name.c_str(), static_cast<long long>(comm.reliable),
                     static_cast<long long>(comm.updates),
                     comm.reanalyzed_srg, comm.lrc);
        ++stats.wrong;
      }
    }
  }

 private:
  const Config& config_;
  plant::ThreeTankSystem system_;
  lrt::Workload workload_;
  adapt::SelfHealingOptions healing_;
  SplitMix64 campaign_seeds_{0};
  std::int64_t next_campaign_ = 0;
  /// hash_bytes of the digest of campaigns 1..recorded_, in order.
  std::optional<RecordFile> digests_;
  std::int64_t recorded_ = 0;
  std::uint64_t first_measured_seed_ = 0;
  std::string first_measured_digest_;
  unsigned resolved_threads_ = 0;
  std::vector<Pooled> pooled_;
  std::int64_t campaigns_ = 0;
  std::int64_t campaign_alarms_ = 0;
};

// --- main ---------------------------------------------------------------

void write_trace(const std::string& path, const std::vector<SpanLog>& logs,
                 const LayerValues& values) {
  std::ofstream out(path);
  for (const SpanLog& log : logs) {
    for (const Span& span : log.spans()) {
      out << "S\t" << span.request << '\t' << span.id << '\t' << span.parent
          << '\t' << span.name << '\t' << span.start_ns << '\t'
          << span.end_ns << '\t' << (span.ok ? 1 : 0) << '\t' << span.bytes
          << '\n';
    }
  }
  out.precision(17);
  for (const auto& [name, value] : values) {
    out << "M\t" << name << '\t' << value << '\n';
  }
  if (!out) die("cannot write " + path);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::unique_ptr<BenchWorkload> make_workload(const Config& config) {
  if (config.workload == "lrtd_cold") {
    return std::make_unique<LrtdColdWorkload>(config);
  }
  if (config.workload == "lrtd_edit") {
    return std::make_unique<LrtdEditWorkload>(config);
  }
  if (config.workload == "sim_multirate") {
    return std::make_unique<SimMultirateWorkload>(config);
  }
  if (config.workload == "sim_3ts") {
    return std::make_unique<Sim3tsWorkload>(config);
  }
  return nullptr;
}

Config parse_args(int argc, char** argv) {
  Config config;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) die(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      config.workload = value(i);
    } else if (flag == "--seed") {
      config.seed = std::stoull(value(i));
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value(i));
    } else if (flag == "--trace") {
      config.trace = value(i) == "1";
    } else if (flag == "--out") {
      config.out_dir = value(i);
    } else if (flag == "--connections") {
      config.connections = std::stoi(value(i));
    } else if (flag == "--workers") {
      config.workers = std::stoi(value(i));
    } else if (flag == "--setups") {
      config.setups = std::stoi(value(i));
    } else if (flag == "--corrupt") {
      g_corrupt_index = std::stoll(value(i));
    } else if (flag == "--corrupt-replay") {
      g_corrupt_replay = true;
    } else {
      die("unknown flag " + flag);
    }
  }
  if (config.connections <= 0 || config.workers <= 0 || config.setups <= 0 ||
      config.seconds <= 0) {
    die("--connections, --workers, --setups and --seconds must be > 0");
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = parse_args(argc, argv);
  std::unique_ptr<BenchWorkload> workload = make_workload(config);
  if (workload == nullptr) die("unknown workload '" + config.workload + "'");

  // An untimed first set-up and warm-up pass: long enough for the
  // allocator, the caches and the host's idle CPUs to settle, so that the
  // timed set-ups below time the set-up work, not the process's cold
  // start. Its outputs are checked like the measured ones; its latencies
  // are not kept.
  workload->setup();
  RunStats warmup = workload->run(config.seconds * kWarmupShare, nullptr, "");
  workload->verify(warmup);

  // Set-up is repeated (run.py reduces the times to the set-up metric),
  // and the last set-up is the one measured.
  std::vector<double> setup_s;
  const Clock::time_point setups_start = Clock::now();
  while (static_cast<int>(setup_s.size()) < config.setups ||
         (seconds_since(setups_start) < kSetupSeconds &&
          static_cast<int>(setup_s.size()) < kMaxSetups)) {
    workload->teardown();
    const Clock::time_point start = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(start));
  }

  RunStats stats;
  RunStats replayed;
  LayerValues values;
  std::vector<SpanLog> logs;
  const std::string out = config.out_dir + "/";
  if (!config.trace) {
    stats = workload->run(config.seconds, nullptr, out + "measured");
  } else {
    // Untraced and traced passes of the same loop, then the layer replay.
    const double phase = config.seconds / 3;
    const RunStats untraced = workload->run(phase, nullptr, out + "untraced");
    for (int c = 0; c < std::max(1, config.connections); ++c) {
      logs.emplace_back(c + 1);
    }
    RunStats traced;
    {
      const ScopedCounters counters;
      traced = workload->run(phase, &logs, out + "traced");
      workload->read_counters(counters.snapshot(), traced.elapsed_s, values);
    }
    logs.emplace_back(0);
    workload->replay_layers(phase, logs.back(), replayed, values);
    stats = untraced;
    stats.merge(traced);
    stats.elapsed_s = untraced.elapsed_s + traced.elapsed_s;
    // Replayed layer calls are checked too but are not load operations.
    stats.wrong += replayed.failed();
    values.emplace_back("replay.checked",
                        static_cast<double>(replayed.attempted));
    write_trace(config.out_dir + "/trace.tsv", logs, values);
  }
  stats.attempted += warmup.attempted;
  stats.shed += warmup.shed;
  stats.error_frames += warmup.error_frames;
  stats.wrong += warmup.wrong;
  // Peak memory of set-up plus the measured loop; the post-run oracles
  // below are the benchmark's own work.
  const double rss_mb = peak_rss_mb();
  workload->verify(stats);
  workload->teardown();

  JsonWriter json;
  json.begin_object();
  json.key("workload");
  json.value(config.workload);
  json.key("seed");
  json.value(static_cast<std::int64_t>(config.seed));
  json.key("trace");
  json.value(config.trace);
  json.key("attempted");
  json.value(stats.attempted);
  json.key("shed");
  json.value(stats.shed);
  json.key("error_frames");
  json.value(stats.error_frames);
  json.key("wrong_outputs");
  json.value(stats.wrong);
  json.key("replay_failed");
  json.value(replayed.failed());
  json.key("elapsed_s");
  json.value(stats.elapsed_s);
  json.key("setup_s");
  json.begin_array();
  for (const double s : setup_s) json.value(s);
  json.end_array();
  json.key("peak_rss_mb");
  json.value(rss_mb);
  json.key("periods_per_op");
  json.value(workload->periods_per_op());
  json.key("input_digest");
  json.value(service::format_fingerprint(workload->input_digest()));
  json.key("output_digest");
  json.value(workload->output_digest());
  json.key("connections");
  json.value(workload->callers());
  json.key("server_workers");
  json.value(workload->server_workers());
  json.key("mc_threads");
  json.value(static_cast<std::int64_t>(workload->mc_threads()));
  json.key("hardware_concurrency");
  json.value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  json.key("compiler");
  json.value(LRT_E2EBENCH_COMPILER);
  json.key("build_type");
  json.value(LRT_E2EBENCH_BUILD_TYPE);
  json.end_object();
  std::printf("%s\n", std::move(json).str().c_str());
  return 0;
}
