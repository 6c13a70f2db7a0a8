// Byte-identity pins for the cold analyze path. The constants below were
// recorded from the implementation that derived every spec-graph fact per
// call and serialized numbers with snprintf; any optimization of the path
// (cached spec facts, the single SRG kernel, the JSON writer) must leave
// every report byte, response frame and fingerprint exactly as recorded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "arch/arch_json.h"
#include "impl/impl_json.h"
#include "lrt/lrt.h"
#include "reliability/analysis.h"
#include "service/protocol.h"
#include "service/service.h"
#include "spec/spec_json.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"
#include "tests/test_util.h"
#include "tests/wire_designs.h"

namespace lrt {
namespace {

struct Observed {
  std::uint64_t fingerprint = 0;
  std::uint64_t report_hash = 0;
  std::size_t report_bytes = 0;
  std::uint64_t frame_hash = 0;
  std::size_t frame_bytes = 0;
};

/// Runs `design` through the facade (decode, fingerprint, build, analyze,
/// report JSON) and through a cold Service::handle analyze, checking the
/// two agree, and returns the hashes of what they produced.
Observed observe(const Design& design) {
  Observed out;
  auto spec_doc = parse_json(design.spec_json);
  auto arch_doc = parse_json(design.arch_json);
  auto impl_doc = parse_json(design.impl_json);
  EXPECT_TRUE(spec_doc.ok() && arch_doc.ok() && impl_doc.ok());
  auto spec_config = spec::specification_config_from_json(*spec_doc);
  auto arch_config = arch::architecture_config_from_json(*arch_doc);
  auto impl_config = impl::implementation_config_from_json(*impl_doc);
  EXPECT_TRUE(spec_config.ok() && arch_config.ok() && impl_config.ok());
  out.fingerprint = lrt::fingerprint(*spec_config, *arch_config);
  auto workload = lrt::build_workload(std::move(spec_config).value(),
                                      std::move(arch_config).value());
  EXPECT_TRUE(workload.ok()) << workload.status();
  EXPECT_EQ(workload->fingerprint(), out.fingerprint);
  auto implementation =
      lrt::build_implementation(*workload, std::move(impl_config).value());
  EXPECT_TRUE(implementation.ok()) << implementation.status();
  auto report = lrt::analyze(*workload, *implementation);
  EXPECT_TRUE(report.ok()) << report.status();
  const std::string report_json = reliability::to_json(*report);
  out.report_hash = hash_bytes(report_json);
  out.report_bytes = report_json.size();

  service::Service service;
  const service::ServiceReply reply =
      service.handle(analyze_frame(design, "g"));
  EXPECT_NE(reply.frame.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(reply.frame.find(report_json), std::string::npos);
  EXPECT_NE(reply.frame.find(service::format_fingerprint(out.fingerprint)),
            std::string::npos);
  out.frame_hash = hash_bytes(reply.frame);
  out.frame_bytes = reply.frame.size();
  return out;
}

void print(const char* name, const Observed& o) {
  std::printf("%s: fp=0x%016" PRIx64 " report=0x%016" PRIx64
              "/%zu frame=0x%016" PRIx64 "/%zu\n",
              name, o.fingerprint, o.report_hash, o.report_bytes,
              o.frame_hash, o.frame_bytes);
}

TEST(ColdPathIdentity, ThreeTankReportFrameAndFingerprint) {
  const Observed o = observe(three_tank_design());
  print("3ts", o);
  EXPECT_EQ(o.fingerprint, 0xa8086d33075f5ef8ull);
  EXPECT_EQ(o.report_hash, 0x21187e28272a8c1bull);
  EXPECT_EQ(o.report_bytes, 678u);
  EXPECT_EQ(o.frame_hash, 0x81c41cdb224481bcull);
  EXPECT_EQ(o.frame_bytes, 801u);
}

TEST(ColdPathIdentity, Generated200TaskReportFrameAndFingerprint) {
  const Observed o = observe(generated_design(11));
  print("gen200", o);
  EXPECT_EQ(o.fingerprint, 0x73b0edb8d8c39f3full);
  EXPECT_EQ(o.report_hash, 0x0322702de9801cd0ull);
  EXPECT_EQ(o.report_bytes, 19848u);
  EXPECT_EQ(o.frame_hash, 0xfed611d81451019aull);
  EXPECT_EQ(o.frame_bytes, 19972u);
}

// --- format_double == printf("%.12g") --------------------------------------

std::string printf_12g(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.12g", value);
  return buffer;
}

TEST(FormatDouble, MatchesPrintfOnEdgeCases) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0,
      denorm_min, -denorm_min, 4.9e-324, 2.2250738585072009e-308,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), std::numeric_limits<double>::epsilon(),
      1e21, 1e22, 1e-5, 1e-4, 1e-7, 1e11, 1e12, 1e13, 123456789012.0,
      1234567890123.0, 999999999999.0, 999999999999.5, 9999999999995.0,
      0.9999999999995, 0.99999999999949, 0.99999999999951, 1.0000000000005,
      2.0, 10.0, 100.0, 1024.0, 4096.0, 65536.0, 9007199254740992.0,
      9007199254740993.0, -9007199254740992.0, 0.97, 0.999, 0.9801,
      0.95 * 0.99, 1.0 - 1e-12, 1.0 - 1e-13, 5e-324 * 3, 1.5e-323,
      0.000123456789012345, 123.456789012345, 0.125, 0.0625, 1e100, 1e-100,
      1.7976931348623157e308, 2.5, 3.5, 0.05, 0.15, 0.25, 0.35, 12345.0};
  for (const double value : values) {
    EXPECT_EQ(format_double(value), printf_12g(value)) << value;
  }
}

TEST(FormatDouble, MatchesPrintfOnRandomBitPatterns) {
  Xoshiro256 rng(20260417);
  int checked = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng.next();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    if (!std::isfinite(value)) continue;
    ASSERT_EQ(format_double(value), printf_12g(value)) << value;
    // Values a reliability report actually carries: in [0, 1].
    const double unit = rng.next_double();
    ASSERT_EQ(format_double(unit), printf_12g(unit)) << unit;
    ++checked;
  }
  EXPECT_GT(checked, 100000);
}

TEST(JsonWriterNumbers, IntegersAndEscapesMatchReferenceSpelling) {
  const std::vector<std::int64_t> ints = {
      0, 1, -1, 9, 10, -10, 123456789, std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : ints) {
    JsonWriter json;
    json.begin_array();
    json.value(v);
    json.end_array();
    EXPECT_EQ(std::move(json).str(), test::indexed("[", v) + "]");
  }
  static constexpr char kKey[] = "k\"\\\x01\x1f\n\r\t";
  static constexpr char kValue[] = "plain run \x7f then \"q\" \b end\x00";
  JsonWriter json;
  json.begin_object();
  json.key(std::string_view(kKey, sizeof kKey - 1));
  json.value(std::string_view(kValue, sizeof kValue - 1));
  json.end_object();
  EXPECT_EQ(std::move(json).str(),
            "{\"k\\\"\\\\\\u0001\\u001f\\n\\r\\t\":"
            "\"plain run \x7f then \\\"q\\\" \\u0008 end\\u0000\"}");
}

// --- cached spec-graph facts ----------------------------------------------

/// The graph facts rendered as one line, for the recorded digest. (The
/// digest was recorded when the unsafe case read the message of a
/// failed reliability-order derivation; it is spelled out here.)
std::string render_facts(const spec::Specification& spec) {
  std::string out = spec.is_memory_free() ? "M" : "m";
  out += spec.is_cycle_safe() ? "S|" : "s|";
  out += spec.describe_cycles();
  out += "|";
  if (spec.is_cycle_safe()) {
    for (const spec::CommId c : spec.reliability_order()) {
      out += std::to_string(c) + ",";
    }
  } else {
    out += "specification '" + spec.name() +
           "' has a communicator cycle without an independent-model task; "
           "the SRG induction is ill-founded:\n" +
           spec.describe_cycles();
  }
  return out;
}

TEST(SpecFacts, RandomizedCorpusDigestIsUnchanged) {
  Xoshiro256 rng(424242);
  std::uint64_t digest = 0;
  int memory_free = 0;
  int safe_cyclic = 0;
  int unsafe = 0;
  for (int i = 0; i < 400; ++i) {
    const spec::Specification spec =
        test::build_spec(test::random_cyclic_spec(rng, i));
    if (spec.is_memory_free()) {
      ++memory_free;
    } else if (spec.is_cycle_safe()) {
      ++safe_cyclic;
    } else {
      ++unsafe;
    }
    digest = hash_bytes(render_facts(spec), digest);
  }
  std::printf("facts digest=0x%016" PRIx64 " free=%d safe=%d unsafe=%d\n",
              digest, memory_free, safe_cyclic, unsafe);
  EXPECT_GE(memory_free, 20);
  EXPECT_GE(safe_cyclic, 20);
  EXPECT_GE(unsafe, 20);
  EXPECT_EQ(digest, 0x665b141c2f103b9bull);
}

/// Reachability closure of a small digraph (Floyd-Warshall).
std::vector<std::vector<bool>> closure(std::vector<std::vector<bool>> reach) {
  const std::size_t n = reach.size();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = true;
      }
    }
  }
  return reach;
}

TEST(SpecFacts, CachedFactsMatchReachabilityOracle) {
  // The facts Specification::Build caches, against a brute-force
  // derivation from the dependency digraph's transitive closure.
  Xoshiro256 rng(97);
  for (int i = 0; i < 300; ++i) {
    const spec::Specification spec =
        test::build_spec(test::random_cyclic_spec(rng, i));
    const std::size_t comms = spec.communicators().size();
    const std::size_t n = comms + spec.tasks().size();
    std::vector<std::vector<bool>> full(n, std::vector<bool>(n, false));
    std::vector<std::vector<bool>> cut = full;
    for (std::size_t t = 0; t < spec.tasks().size(); ++t) {
      const spec::Task& task = spec.task(static_cast<spec::TaskId>(t));
      for (const spec::CommId c :
           spec.input_comm_set(static_cast<spec::TaskId>(t))) {
        full[static_cast<std::size_t>(c)][comms + t] = true;
        if (task.model != spec::FailureModel::kIndependent) {
          cut[static_cast<std::size_t>(c)][comms + t] = true;
        }
      }
      for (const spec::PortRef& port : task.outputs) {
        full[comms + t][static_cast<std::size_t>(port.comm)] = true;
        cut[comms + t][static_cast<std::size_t>(port.comm)] = true;
      }
    }
    full = closure(std::move(full));
    cut = closure(std::move(cut));

    std::vector<std::vector<spec::CommId>> cycles;
    for (std::size_t c = 0; c < comms; ++c) {
      if (!full[c][c]) continue;
      std::vector<spec::CommId> component;
      for (std::size_t d = 0; d < comms; ++d) {
        if (full[c][d] && full[d][c]) {
          component.push_back(static_cast<spec::CommId>(d));
        }
      }
      if (std::find(cycles.begin(), cycles.end(), component) ==
          cycles.end()) {
        cycles.push_back(std::move(component));
      }
    }
    std::vector<std::vector<spec::CommId>> cached = spec.cycles();
    std::sort(cycles.begin(), cycles.end());
    std::sort(cached.begin(), cached.end());
    EXPECT_EQ(cached, cycles) << spec.name();
    EXPECT_EQ(spec.is_memory_free(), cycles.empty()) << spec.name();

    bool safe = true;
    for (std::size_t u = 0; u < n; ++u) safe = safe && !cut[u][u];
    EXPECT_EQ(spec.is_cycle_safe(), safe) << spec.name();
    EXPECT_EQ(spec.require_cycle_safe("x").ok(), safe) << spec.name();

    const std::vector<spec::CommId>& order = spec.reliability_order();
    if (!safe) {
      EXPECT_TRUE(order.empty()) << spec.name();
      continue;
    }
    ASSERT_EQ(order.size(), comms) << spec.name();
    std::vector<int> position(comms, -1);
    for (std::size_t k = 0; k < order.size(); ++k) {
      position[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
    }
    for (std::size_t c = 0; c < comms; ++c) {
      ASSERT_GE(position[c], 0) << spec.name() << " misses comm " << c;
      for (std::size_t d = 0; d < comms; ++d) {
        if (cut[c][d]) {
          EXPECT_LT(position[c], position[d])
              << spec.name() << ": " << c << " must precede " << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lrt
