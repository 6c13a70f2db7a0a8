// End-to-end tests for lrtd (DESIGN.md §5k): the Service request handler
// (wire envelope, fingerprint cache, delta analyzes, deadlines,
// idempotent replay) and the AF_UNIX Server transport (framing,
// admission control, worker-count-independent response bytes).
#include <gtest/gtest.h>

#include <malloc.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "arch/arch_json.h"
#include "arch/architecture.h"
#include "impl/impl_json.h"
#include "impl/implementation.h"
#include "lrt/lrt.h"
#include "reliability/analysis.h"
#include "service/client.h"
#include "service/frame.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "spec/spec_json.h"
#include "spec/specification.h"
#include "support/json.h"
#include "support/status.h"
#include "tests/test_util.h"

namespace lrt::service {
namespace {

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

/// The quickstart workload: two communicators, one mappable task, two
/// hosts — small enough that a cold analyze is microseconds.
spec::SpecificationConfig make_spec_config() {
  spec::SpecificationConfig config;
  config.name = "service_test";
  config.communicators = {
      {"s", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.95},
      {"level", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.90},
  };
  spec::SpecificationConfig::TaskConfig filter;
  filter.name = "filter";
  filter.inputs = {{"s", 0}};
  filter.outputs = {{"level", 1}};
  filter.model = spec::FailureModel::kSeries;
  config.tasks.push_back(std::move(filter));
  return config;
}

arch::ArchitectureConfig make_arch_config() {
  arch::ArchitectureConfig config;
  config.name = "service_arch";
  config.hosts = {{"h1", 0.99}, {"h2", 0.97}};
  config.sensors = {{"gauge", 0.98}};
  config.default_wcet = 4;
  config.default_wctt = 1;
  return config;
}

impl::ImplementationConfig make_impl_config(
    std::vector<std::string> filter_hosts) {
  impl::ImplementationConfig config;
  config.task_mappings = {{"filter", std::move(filter_hosts), 0, 0, 0}};
  config.sensor_bindings = {{"s", "gauge"}};
  return config;
}

/// {"schema":1,"id":id,"verb":verb, <extra fields>} — `extra` is raw
/// JSON members ("\"key\":value,...") or empty.
std::string make_frame(std::string_view id, std::string_view verb,
                       std::string_view extra = {}) {
  std::string frame = "{\"schema\":1,\"id\":\"" + std::string(id) +
                      "\",\"verb\":\"" + std::string(verb) + "\"";
  if (!extra.empty()) {
    frame += ",";
    frame += extra;
  }
  frame += "}";
  return frame;
}

std::string cold_analyze_extra(const impl::ImplementationConfig& config) {
  return "\"spec\":" + spec::to_json(make_spec_config()) +
         ",\"arch\":" + arch::to_json(make_arch_config()) +
         ",\"implementation\":" + impl::to_json(config);
}

std::string mutate_extra(std::string_view fingerprint, std::string_view task,
                         const std::vector<std::string>& hosts,
                         bool full_report = false) {
  JsonWriter hosts_json;
  hosts_json.begin_array();
  for (const std::string& host : hosts) hosts_json.value(host);
  hosts_json.end_array();
  std::string extra = "\"fingerprint\":\"" + std::string(fingerprint) +
                      "\",\"mutate\":{\"task\":\"" + std::string(task) +
                      "\",\"hosts\":" + std::move(hosts_json).str() + "}";
  if (full_report) extra += ",\"full_report\":true";
  return extra;
}

/// Extracts result.fingerprint from an ok frame.
std::string response_fingerprint(const std::string& frame) {
  const std::string key = "\"fingerprint\":\"";
  const std::size_t at = frame.find(key);
  EXPECT_NE(at, std::string::npos) << frame;
  if (at == std::string::npos) return {};
  return frame.substr(at + key.size(), 16);
}

std::string handle_ok(Service& service, const std::string& frame) {
  ServiceReply reply = service.handle(frame);
  EXPECT_TRUE(contains(reply.frame, "\"ok\":true")) << reply.frame;
  return std::move(reply.frame);
}

std::string handle_error(Service& service, const std::string& frame,
                         std::string_view code) {
  ServiceReply reply = service.handle(frame);
  EXPECT_TRUE(contains(reply.frame, "\"ok\":false")) << reply.frame;
  EXPECT_TRUE(
      contains(reply.frame, "\"code\":\"" + std::string(code) + "\""))
      << reply.frame;
  return std::move(reply.frame);
}

/// A deterministic clock: every now_ms() call advances time by `step`.
/// handle() reads the clock once at arrival, run_verb once more when a
/// deadline is set, and do_batch twice per deadline-checked item.
struct FakeClock {
  std::int64_t now = 0;
  std::int64_t step = 100;
  std::function<std::int64_t()> fn() {
    return [this] {
      now += step;
      return now;
    };
  }
};

// ---------------------------------------------------------------------------
// Protocol vocabulary.

TEST(Protocol, VerbNamesRoundTrip) {
  const Verb verbs[] = {Verb::kPing,     Verb::kAnalyze, Verb::kSynthesize,
                        Verb::kValidate, Verb::kLint,    Verb::kUpdateCheck,
                        Verb::kBatch,    Verb::kShutdown};
  for (const Verb verb : verbs) {
    const std::optional<Verb> back = verb_from_name(verb_name(verb));
    ASSERT_TRUE(back.has_value()) << verb_name(verb);
    EXPECT_EQ(*back, verb);
  }
  EXPECT_EQ(verb_from_name("update_check"), Verb::kUpdateCheck);
  EXPECT_FALSE(verb_from_name("no_such_verb").has_value());
}

TEST(Protocol, FingerprintFormatRoundTrips) {
  for (const std::uint64_t fp :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeef},
        std::uint64_t{0xffffffffffffffff}}) {
    const std::string text = format_fingerprint(fp);
    EXPECT_EQ(text.size(), 16u);
    EXPECT_EQ(parse_fingerprint(text), fp);
  }
  EXPECT_FALSE(parse_fingerprint("").has_value());
  EXPECT_FALSE(parse_fingerprint("12345").has_value());
  EXPECT_FALSE(parse_fingerprint("ABCDEF0123456789").has_value());
  EXPECT_FALSE(parse_fingerprint("0123456789abcdef0").has_value());
}

TEST(Protocol, ExtractRequestIdIsBestEffort) {
  EXPECT_EQ(extract_request_id("{\"id\":\"r7\",\"verb\":\"ping\"}"), "r7");
  EXPECT_FALSE(extract_request_id("{\"id\":42}").has_value());
  EXPECT_FALSE(extract_request_id("not json").has_value());
}

TEST(Protocol, ErrorFrameRendersNullId) {
  const std::string frame =
      make_error_frame(std::nullopt, InvalidArgumentError("bad"));
  EXPECT_TRUE(contains(frame, "\"id\":null")) << frame;
  EXPECT_TRUE(contains(frame, "\"code\":\"kInvalidArgument\"")) << frame;
}

// ---------------------------------------------------------------------------
// Envelope handling.

TEST(Service, PingAndEnvelopeErrors) {
  Service service;
  const std::string pong = handle_ok(service, make_frame("p1", "ping"));
  EXPECT_TRUE(contains(pong, "\"pong\":true")) << pong;

  // Not JSON at all: error with a null id.
  ServiceReply garbled = service.handle("not json");
  EXPECT_TRUE(contains(garbled.frame, "\"id\":null")) << garbled.frame;
  EXPECT_TRUE(contains(garbled.frame, "\"ok\":false"));

  handle_error(service, "{\"schema\":1,\"verb\":\"ping\"}",
               "kInvalidArgument");  // no id
  handle_error(service, "{\"schema\":2,\"id\":\"x\",\"verb\":\"ping\"}",
               "kInvalidArgument");  // foreign schema
  handle_error(service, make_frame("x", "no_such_verb"),
               "kInvalidArgument");  // unknown verb
}

// ---------------------------------------------------------------------------
// Analyze: cold path, delta path, and their byte-identity contract.

TEST(Service, ColdAnalyzeMatchesFacadeReport) {
  auto workload = lrt::build_workload(make_spec_config(), make_arch_config());
  ASSERT_TRUE(workload.ok());
  auto impl =
      lrt::build_implementation(*workload, make_impl_config({"h1", "h2"}));
  ASSERT_TRUE(impl.ok());
  auto direct = lrt::analyze(*workload, *impl);
  ASSERT_TRUE(direct.ok());

  Service service;
  const std::string frame = handle_ok(
      service, make_frame("c1", "analyze",
                          cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  // The embedded report is byte-identical to the one-shot facade call's.
  EXPECT_TRUE(contains(frame, reliability::to_json(*direct))) << frame;
  EXPECT_EQ(response_fingerprint(frame),
            format_fingerprint(workload->fingerprint()));
  EXPECT_EQ(service.resident_count(), 1u);
}

TEST(Service, MutateHitIsByteIdenticalToColdRebuild) {
  // Warm service: cold analyze on {h1,h2}, then a delta to {h2}.
  Service warm;
  const std::string cold = handle_ok(
      warm, make_frame("c1", "analyze",
                       cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  const std::string fp = response_fingerprint(cold);
  const std::string hit = handle_ok(
      warm, make_frame("m1", "analyze",
                       mutate_extra(fp, "filter", {"h2"}, true)));

  // Fresh service: the mutated config analyzed cold, same request id —
  // the whole response frame must match byte for byte.
  Service fresh;
  const std::string rebuilt = handle_ok(
      fresh,
      make_frame("m1", "analyze",
                 cold_analyze_extra(make_impl_config({"h2"}))));
  EXPECT_EQ(hit, rebuilt);
}

TEST(Service, ReexecutionFallbackRebuildsFromHitState) {
  // A two-task chain: a hit moves task2, then a re-execution change on
  // task1 takes the rebuild fallback, which must start from the resident
  // state including that hit. A later hit on task1 must see the new
  // re-execution count as current.
  const spec::SpecificationConfig spec_config = test::chain_spec_config(2);
  const auto analyze_extra = [&](std::vector<std::string> task1_hosts,
                                 int task1_reexecutions,
                                 std::vector<std::string> task2_hosts) {
    impl::ImplementationConfig impl_config;
    impl_config.task_mappings = {
        {"task1", std::move(task1_hosts), task1_reexecutions, 0, 0},
        {"task2", std::move(task2_hosts), 0, 0, 0}};
    impl_config.sensor_bindings = {{"c0", "gauge"}};
    return "\"spec\":" + spec::to_json(spec_config) +
           ",\"arch\":" + arch::to_json(make_arch_config()) +
           ",\"implementation\":" + impl::to_json(impl_config);
  };
  Service warm;
  const std::string fp = response_fingerprint(handle_ok(
      warm, make_frame("c1", "analyze",
                       analyze_extra({"h1", "h2"}, 0, {"h1", "h2"}))));
  handle_ok(warm, make_frame("m1", "analyze",
                             mutate_extra(fp, "task2", {"h2"})));
  const std::string fallback = handle_ok(
      warm, make_frame("m2", "analyze",
                       "\"fingerprint\":\"" + fp +
                           "\",\"mutate\":{\"task\":\"task1\","
                           "\"hosts\":[\"h1\"],\"reexecutions\":1},"
                           "\"full_report\":true"));
  const std::string hit = handle_ok(
      warm, make_frame("m3", "analyze",
                       mutate_extra(fp, "task1", {"h2"}, true)));

  Service fresh;
  EXPECT_EQ(fallback,
            handle_ok(fresh, make_frame("m2", "analyze",
                                        analyze_extra({"h1"}, 1, {"h2"}))));
  EXPECT_EQ(hit,
            handle_ok(fresh, make_frame("m3", "analyze",
                                        analyze_extra({"h2"}, 1, {"h2"}))));
}

/// Bytes the process holds from malloc (arena plus mmapped chunks).
std::size_t heap_in_use() {
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(Service, MutateHitsDoNotRetainUndoHistory) {
  // A 64-task chain: flipping the head task's host set changes its
  // lambda and with it every downstream SRG, so each hit rewrites 65
  // evaluator slots. lrtd never rolls a resident evaluator back, so none
  // of that undo history may outlive the request that made it.
  const spec::SpecificationConfig spec_config = test::chain_spec_config(64);
  arch::ArchitectureConfig arch_config = make_arch_config();
  impl::ImplementationConfig impl_config;
  for (const auto& task : spec_config.tasks) {
    impl_config.task_mappings.push_back({task.name, {"h1"}, 0, 0, 0});
  }
  impl_config.sensor_bindings = {{"c0", "gauge"}};
  Service service;
  const std::string cold = handle_ok(
      service, make_frame("cold", "analyze",
                          "\"spec\":" + spec::to_json(spec_config) +
                              ",\"arch\":" + arch::to_json(arch_config) +
                              ",\"implementation\":" +
                              impl::to_json(impl_config)));
  const std::string fp = response_fingerprint(cold);
  const auto flip = [&](int i) {
    const std::vector<std::string> hosts =
        i % 2 == 0 ? std::vector<std::string>{"h1", "h2"}
                   : std::vector<std::string>{"h1"};
    handle_ok(service, make_frame("m" + std::to_string(i), "analyze",
                                  mutate_extra(fp, "task1", hosts)));
  };
  // Past the idempotency bound first, so the replay cache is in steady
  // state before the measured window.
  const int warmup = static_cast<int>(
      ServiceOptions{}.max_idempotency_entries + 100);
  for (int i = 0; i < warmup; ++i) flip(i);
  const std::size_t before = heap_in_use();
  for (int i = warmup; i < warmup + 4000; ++i) flip(i);
  const std::size_t after = heap_in_use();
  // Retained history would be 4000 x 65 x 16 bytes (> 4 MB).
  EXPECT_LT(after, before + (std::size_t{1} << 20))
      << "heap grew by " << (after - before) << " bytes over 4000 hits";
}

TEST(Service, MutateDefaultsToCompactVerdict) {
  Service service;
  const std::string cold = handle_ok(
      service, make_frame("c1", "analyze",
                          cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  EXPECT_TRUE(contains(cold, "\"report\":")) << cold;
  const std::string fp = response_fingerprint(cold);

  const std::string compact = handle_ok(
      service,
      make_frame("m1", "analyze", mutate_extra(fp, "filter", {"h2"})));
  EXPECT_FALSE(contains(compact, "\"report\":")) << compact;
  EXPECT_TRUE(contains(compact, "\"reliable\":")) << compact;
  EXPECT_TRUE(contains(compact, "\"unsatisfied_comms\":")) << compact;

  // The compact verdict agrees with the full report's summary fields.
  const std::string full = handle_ok(
      service,
      make_frame("m2", "analyze", mutate_extra(fp, "filter", {"h2"}, true)));
  const auto verdict_of = [](const std::string& frame) {
    const std::size_t begin = frame.find("\"reliable\":");
    const std::size_t end = frame.find(",\"report\"");
    return frame.substr(begin, end == std::string::npos
                                   ? frame.find("}}") - begin
                                   : end - begin);
  };
  EXPECT_EQ(verdict_of(compact), verdict_of(full));
}

TEST(Service, FingerprintAddressingAndNotFound) {
  Service service;
  const std::string cold = handle_ok(
      service, make_frame("c1", "analyze",
                          cold_analyze_extra(make_impl_config({"h1"}))));
  const std::string fp = response_fingerprint(cold);

  // Resident hit by fingerprint alone.
  const std::string hit = handle_ok(
      service,
      make_frame("m1", "analyze", mutate_extra(fp, "filter", {"h1", "h2"})));
  EXPECT_EQ(response_fingerprint(hit), fp);

  // Unknown fingerprint: typed kNotFound telling the caller to resend.
  const std::string miss = handle_error(
      service,
      make_frame("m2", "analyze",
                 mutate_extra("0000000000000000", "filter", {"h1"})),
      "kNotFound");
  EXPECT_TRUE(contains(miss, "resend 'spec' and 'arch'")) << miss;
}

TEST(Service, InvalidMutateDoesNotPoisonResidentState) {
  Service warm;
  const std::string cold = handle_ok(
      warm, make_frame("c1", "analyze",
                       cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  const std::string fp = response_fingerprint(cold);

  handle_error(warm,
               make_frame("e1", "analyze",
                          mutate_extra(fp, "no_such_task", {"h1"})),
               "kNotFound");
  handle_error(warm,
               make_frame("e2", "analyze",
                          mutate_extra(fp, "filter", {"no_such_host"})),
               "kNotFound");
  handle_error(warm,
               make_frame("e3", "analyze",
                          mutate_extra(fp, "filter", {"h1", "h1"})),
               "kInvalidArgument");
  handle_error(warm,
               make_frame("e4", "analyze", mutate_extra(fp, "filter", {})),
               "kInvalidArgument");

  // After four rejected mutations the evaluator still answers the next
  // delta with the same bytes a fresh cold analysis produces.
  const std::string hit = handle_ok(
      warm, make_frame("m1", "analyze",
                       mutate_extra(fp, "filter", {"h2"}, true)));
  Service fresh;
  const std::string rebuilt = handle_ok(
      fresh,
      make_frame("m1", "analyze",
                 cold_analyze_extra(make_impl_config({"h2"}))));
  EXPECT_EQ(hit, rebuilt);
}

TEST(Service, MutateWithoutResidentImplementationFailsPrecondition) {
  Service service;
  // spec+arch make the workload resident, but no implementation was ever
  // analyzed — a delta has nothing to mutate.
  const std::string extra =
      "\"spec\":" + spec::to_json(make_spec_config()) +
      ",\"arch\":" + arch::to_json(make_arch_config()) +
      ",\"mutate\":{\"task\":\"filter\",\"hosts\":[\"h1\"]}";
  const std::string frame = handle_error(
      service, make_frame("m1", "analyze", extra), "kFailedPrecondition");
  EXPECT_TRUE(contains(frame, "send a full 'implementation' first")) << frame;
}

TEST(Service, AnalyzeNeedsExactlyOneOfImplementationAndMutate) {
  Service service;
  const std::string neither =
      "\"spec\":" + spec::to_json(make_spec_config()) +
      ",\"arch\":" + arch::to_json(make_arch_config());
  handle_error(service, make_frame("a1", "analyze", neither),
               "kInvalidArgument");
  const std::string both =
      neither + ",\"implementation\":" +
      impl::to_json(make_impl_config({"h1"})) +
      ",\"mutate\":{\"task\":\"filter\",\"hosts\":[\"h1\"]}";
  handle_error(service, make_frame("a2", "analyze", both),
               "kInvalidArgument");
}

// ---------------------------------------------------------------------------
// Idempotent replay.

TEST(Service, ReplayedIdReturnsCachedBytesWithoutReExecuting) {
  Service service;
  const std::string first = handle_ok(
      service, make_frame("dup", "analyze",
                          cold_analyze_extra(make_impl_config({"h1", "h2"}))));

  // A different body under the same id proves the cached bytes come
  // back without the verb running: a ping would otherwise answer pong.
  ServiceReply replay = service.handle(make_frame("dup", "ping"));
  EXPECT_EQ(replay.frame, first);
  EXPECT_FALSE(contains(replay.frame, "pong"));
}

// ---------------------------------------------------------------------------
// LRU bound on resident workloads.

TEST(Service, LruEvictsBeyondResidencyBound) {
  ServiceOptions options;
  options.max_resident_workloads = 1;
  Service service(options);

  const std::string first = handle_ok(
      service, make_frame("c1", "analyze",
                          cold_analyze_extra(make_impl_config({"h1"}))));
  const std::string fp_a = response_fingerprint(first);

  // A second workload (different host reliability) displaces the first.
  arch::ArchitectureConfig other_arch = make_arch_config();
  other_arch.hosts[0].reliability = 0.991;
  const std::string other_extra =
      "\"spec\":" + spec::to_json(make_spec_config()) +
      ",\"arch\":" + arch::to_json(other_arch) +
      ",\"implementation\":" + impl::to_json(make_impl_config({"h1"}));
  const std::string second =
      handle_ok(service, make_frame("c2", "analyze", other_extra));
  EXPECT_NE(response_fingerprint(second), fp_a);
  EXPECT_EQ(service.resident_count(), 1u);

  handle_error(service,
               make_frame("m1", "analyze",
                          mutate_extra(fp_a, "filter", {"h1"})),
               "kNotFound");
}

// ---------------------------------------------------------------------------
// Deadlines (injected clock: each now_ms() call advances 100ms).

TEST(Service, ExpiredDeadlineYieldsTypedTimeoutAndIsNotCached) {
  FakeClock clock;
  ServiceOptions options;
  options.clock_ms = clock.fn();
  Service service(options);

  // arrival=100 (deadline_at=150), verb check=200 -> expired.
  const std::string frame = handle_error(
      service, make_frame("d1", "ping", "\"deadline_ms\":50"),
      "kDeadlineExceeded");
  EXPECT_TRUE(contains(frame, "expired before the ping verb ran")) << frame;

  // A retry of the same id gets a fresh attempt, not the failure
  // replayed: with time rewound the same request now succeeds.
  clock.now = 0;
  const std::string retry = handle_ok(
      service, make_frame("d1", "ping", "\"deadline_ms\":50000"));
  EXPECT_TRUE(contains(retry, "\"pong\":true")) << retry;
}

TEST(Service, GenerousDeadlinePasses) {
  FakeClock clock;
  ServiceOptions options;
  options.clock_ms = clock.fn();
  Service service(options);
  handle_ok(service, make_frame("d2", "ping", "\"deadline_ms\":10000"));
}

TEST(Service, BatchDegradesToPartialResultsOnDeadline) {
  FakeClock clock;
  ServiceOptions options;
  options.clock_ms = clock.fn();
  Service service(options);

  // Clock trace at step=100 with deadline_ms=450 (deadline_at=550):
  // arrival=100, outer check=200, item0 check=300 + verb check=400 (ok),
  // item1 check=500 + verb check=600 (expired inside run_verb), item2
  // check=700 (expired before parsing).
  const std::string items =
      "\"deadline_ms\":450,\"items\":["
      "{\"schema\":1,\"id\":\"b0\",\"verb\":\"ping\"},"
      "{\"schema\":1,\"id\":\"b1\",\"verb\":\"ping\"},"
      "{\"schema\":1,\"id\":\"b2\",\"verb\":\"ping\"}]";
  const std::string frame =
      handle_ok(service, make_frame("batch1", "batch", items));
  EXPECT_TRUE(contains(frame, "\"id\":\"b0\",\"ok\":true")) << frame;
  EXPECT_TRUE(contains(frame, "\"pong\":true")) << frame;
  EXPECT_TRUE(contains(frame, "\"id\":\"b1\",\"ok\":false")) << frame;
  EXPECT_TRUE(contains(frame, "\"id\":\"b2\",\"ok\":false")) << frame;
  EXPECT_TRUE(contains(frame, "batch deadline expired before item 2"))
      << frame;

  // Partial batches are never cached: replayed with time rewound and a
  // slower clock, every item completes.
  clock.now = 0;
  clock.step = 1;
  const std::string retry =
      handle_ok(service, make_frame("batch1", "batch", items));
  EXPECT_TRUE(contains(retry, "\"id\":\"b1\",\"ok\":true")) << retry;
  EXPECT_TRUE(contains(retry, "\"id\":\"b2\",\"ok\":true")) << retry;
  EXPECT_FALSE(contains(retry, "\"ok\":false")) << retry;
}

TEST(Service, BatchRejectsNestedBatchAndShutdown) {
  Service service;
  const std::string items =
      "\"items\":["
      "{\"schema\":1,\"id\":\"n0\",\"verb\":\"batch\",\"items\":[]},"
      "{\"schema\":1,\"id\":\"n1\",\"verb\":\"shutdown\"}]";
  const std::string frame =
      handle_ok(service, make_frame("batch2", "batch", items));
  EXPECT_TRUE(contains(frame, "'batch' is not allowed inside a batch"))
      << frame;
  EXPECT_TRUE(contains(frame, "'shutdown' is not allowed inside a batch"))
      << frame;
}

// ---------------------------------------------------------------------------
// Synthesize.

TEST(Service, SynthesizeWithTimingHoleIsPrompt) {
  // A 10-task chain on 3 hosts whose last LRC no mapping can meet, over an
  // architecture with no default WCET and one missing metric entry. The
  // exhaustive search must prove the LRC unreachable from the SRG ceiling
  // instead of enumerating the 7^10 candidate mappings.
  constexpr int kTasks = 10;
  spec::SpecificationConfig spec_config;
  spec_config.name = "hole_chain";
  spec_config.communicators.push_back(
      {"c0", spec::ValueType::kReal, spec::Value::real(0.0), 10, 0.5});
  for (int i = 0; i < kTasks; ++i) {
    const std::string in = test::indexed("c", i);
    const std::string out = test::indexed("c", i + 1);
    spec_config.communicators.push_back(
        {out, spec::ValueType::kReal, spec::Value::real(0.0), 10,
         i + 1 == kTasks ? 0.9999 : 0.5});
    spec::SpecificationConfig::TaskConfig task;
    task.name = test::indexed("t", i);
    task.inputs = {{in, 0}};
    task.outputs = {{out, 1}};
    task.model = spec::FailureModel::kSeries;
    spec_config.tasks.push_back(std::move(task));
  }
  arch::ArchitectureConfig arch_config;
  arch_config.name = "hole_arch";
  arch_config.hosts = {{"h1", 0.9}, {"h2", 0.9}, {"h3", 0.9}};
  arch_config.sensors = {{"gauge", 0.99}};
  arch_config.default_wcet = std::nullopt;
  for (const auto& task : spec_config.tasks) {
    for (const arch::Host& host : arch_config.hosts) {
      if (task.name == "t0" && host.name == "h3") continue;  // the hole
      arch_config.metrics.push_back({task.name, host.name, 1, 1});
    }
  }
  const std::string extra =
      "\"spec\":" + spec::to_json(spec_config) +
      ",\"arch\":" + arch::to_json(arch_config) +
      ",\"sensor_bindings\":[{\"communicator\":\"c0\",\"sensor\":"
      "\"gauge\"}],\"strategy\":\"exhaustive\"";
  ASSERT_TRUE(contains(extra, "\"default_wcet\":null")) << extra;

  Service service;
  const auto start = std::chrono::steady_clock::now();
  const std::string frame = handle_error(
      service, make_frame("s1", "synthesize", extra), "kUnsatisfiable");
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  EXPECT_LT(ms, 1000.0) << frame;
}

// ---------------------------------------------------------------------------
// Framing.

TEST(Frame, RoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = "{\"hello\":\"world\"}";
  ASSERT_TRUE(write_frame(fds[0], payload).ok());
  ASSERT_TRUE(write_frame(fds[0], "").ok());
  auto first = read_frame(fds[1]);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ(**first, payload);
  auto second = read_frame(fds[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(**second, "");

  // Clean EOF at a frame boundary is nullopt, not an error.
  ::close(fds[0]);
  auto eof = read_frame(fds[1]);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
  ::close(fds[1]);
}

TEST(Frame, RejectsOversizedLengthPrefix) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char huge[4] = {0xff, 0xff, 0xff, 0xff};  // 4 GiB
  ASSERT_EQ(::write(fds[0], huge, sizeof huge),
            static_cast<ssize_t>(sizeof huge));
  auto result = read_frame(fds[1]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// The AF_UNIX server.

std::string test_socket_path(std::string_view tag) {
  return "/tmp/lrt_service_test_" + std::to_string(::getpid()) + "_" +
         std::string(tag) + ".sock";
}

TEST(Server, ServesPingAndShutsDownGracefully) {
  ServerOptions options;
  options.socket_path = test_socket_path("ping");
  options.threads = 2;
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  auto pong = client->call(make_frame("p1", "ping"));
  ASSERT_TRUE(pong.ok()) << pong.status().to_string();
  EXPECT_TRUE(contains(*pong, "\"pong\":true")) << *pong;

  auto stopping = client->call(make_frame("s1", "shutdown"));
  ASSERT_TRUE(stopping.ok());
  EXPECT_TRUE(contains(*stopping, "\"stopping\":true")) << *stopping;
  (*server)->Wait();

  // The socket path is unlinked; a new connect finds nothing listening.
  EXPECT_NE(::access(options.socket_path.c_str(), F_OK), 0);
  EXPECT_FALSE(Client::Connect(options.socket_path).ok());
}

TEST(Server, ResponseBytesAreIndependentOfWorkerCount) {
  // One connection replaying the same request log must read the same
  // response bytes from a serial server and an 8-worker server.
  std::vector<std::string> log;
  log.push_back(make_frame("c1", "analyze",
                           cold_analyze_extra(make_impl_config({"h1", "h2"}))));
  const std::string fp =
      format_fingerprint(lrt::fingerprint(make_spec_config(),
                                          make_arch_config()));
  for (int i = 0; i < 8; ++i) {
    std::string request_id = "m";
    request_id += std::to_string(i);
    log.push_back(make_frame(
        request_id, "analyze",
        mutate_extra(fp, "filter", {i % 2 == 0 ? "h2" : "h1"}, i % 3 == 0)));
  }
  log.push_back(make_frame("p1", "ping"));
  log.push_back(make_frame(
      "l1", "lint",
      "\"source\":\"program p { communicator c : real period 10 init 0.0 "
      "lrc 0.9; }\""));

  const auto replay = [&](unsigned threads) {
    ServerOptions options;
    options.socket_path =
        test_socket_path("replay" + std::to_string(threads));
    options.threads = threads;
    auto server = Server::Start(options);
    EXPECT_TRUE(server.ok()) << server.status().to_string();
    auto client = Client::Connect(options.socket_path);
    EXPECT_TRUE(client.ok());
    std::string stream;
    for (const std::string& frame : log) {
      auto response = client->call(frame);
      EXPECT_TRUE(response.ok()) << response.status().to_string();
      if (response.ok()) {
        stream += *response;
        stream += '\n';
      }
    }
    (*server)->Stop();
    (*server)->Wait();
    return stream;
  };

  const std::string serial = replay(1);
  const std::string parallel = replay(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Server, ShedsBeyondPendingBoundWithoutPoisoningState) {
  // The admission gate holds the validate inside the single worker until
  // the flood ping has been answered: the validate owns the one pending
  // slot for that whole window, so the ping is shed by construction.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool validate_in_flight = false;
  bool release_validate = false;
  ServerOptions options;
  options.socket_path = test_socket_path("shed");
  options.threads = 1;
  options.max_pending = 1;
  options.admission_gate = [&](std::string_view frame) {
    if (!contains(frame, "\"id\":\"v1\"")) return;
    std::unique_lock<std::mutex> lock(gate_mutex);
    validate_in_flight = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return release_validate; });
  };
  auto server = Server::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  // While the validate occupies the single pending slot, every frame
  // the reader sees is shed with a typed kUnavailable reply.
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  const std::string validate_frame = make_frame(
      "v1", "validate",
      "\"spec\":" + spec::to_json(make_spec_config()) +
          ",\"arch\":" + arch::to_json(make_arch_config()) +
          ",\"implementation\":" + impl::to_json(make_impl_config({"h1"})) +
          ",\"trials\":40,\"periods\":60,\"seed\":11");

  // Sending the flood via a second connection keeps the first
  // connection's FIFO intact.
  auto flood = Client::Connect(options.socket_path);
  ASSERT_TRUE(flood.ok());

  std::thread slow([&] {
    auto response = client->call(validate_frame);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(contains(*response, "\"ok\":true")) << *response;
    EXPECT_TRUE(contains(*response, "\"validation\"")) << *response;
  });
  {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return validate_in_flight; });
  }

  auto response = flood->call(make_frame("f0", "ping"));
  // Release the validate before any assertion can end the test early.
  {
    const std::lock_guard<std::mutex> lock(gate_mutex);
    release_validate = true;
  }
  gate_cv.notify_all();
  slow.join();
  bool shed_seen = false;
  ASSERT_TRUE(response.ok());
  if (contains(*response, "\"code\":\"kUnavailable\"")) {
    EXPECT_TRUE(contains(*response, "overloaded")) << *response;
    shed_seen = true;
  }
  EXPECT_TRUE(shed_seen);

  // Shedding poisons nothing: the same connection still analyzes. A
  // kUnavailable here is the advertised retry contract (the validate's
  // pending slot frees a moment after its response is written), so
  // retry with fresh ids until admitted.
  bool analyzed = false;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
  for (int i = 0; !analyzed && std::chrono::steady_clock::now() < give_up;
       ++i) {
    auto cold = flood->call(
        make_frame("c" + std::to_string(i), "analyze",
                   cold_analyze_extra(make_impl_config({"h1", "h2"}))));
    ASSERT_TRUE(cold.ok());
    if (contains(*cold, "\"ok\":true")) {
      analyzed = true;
    } else {
      EXPECT_TRUE(contains(*cold, "\"code\":\"kUnavailable\"")) << *cold;
      // Back off: on one core a tight retry loop can starve the worker
      // of the cycles it needs to retire the validate and free the slot.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(analyzed);

  (*server)->Stop();
  (*server)->Wait();
}

}  // namespace
}  // namespace lrt::service
