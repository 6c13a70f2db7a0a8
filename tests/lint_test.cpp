// Tests for the lrt-lint static analyzer: the diagnostic engine, every
// rule pass against seeded fixture programs, severity configuration, the
// output renderers (text / JSON / SARIF 2.1.0), and the acceptance gate
// that every shipped examples/htl program lints without errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/fixit.h"
#include "lint/lint.h"
#include "lint/sarif.h"

namespace lrt::lint {
namespace {

bool has_rule(const LintResult& result, std::string_view rule_id) {
  return std::any_of(result.diagnostics.begin(), result.diagnostics.end(),
                     [rule_id](const Diagnostic& diag) {
                       return diag.rule_id == rule_id;
                     });
}

const Diagnostic& first_of(const LintResult& result,
                           std::string_view rule_id) {
  const auto it =
      std::find_if(result.diagnostics.begin(), result.diagnostics.end(),
                   [rule_id](const Diagnostic& diag) {
                     return diag.rule_id == rule_id;
                   });
  EXPECT_NE(it, result.diagnostics.end()) << "no diagnostic " << rule_id;
  return *it;
}

LintResult lint_or_die(std::string_view source,
                       const LintOptions& options = {}) {
  auto result = lint_source(source, options);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return std::move(*result);
}

// ---------------------------------------------------------------------------
// DiagnosticEngine.

TEST(Diagnostic, SeverityRoundTrip) {
  EXPECT_EQ(to_string(Severity::kError), "error");
  EXPECT_EQ(parse_severity("warning"), Severity::kWarning);
  EXPECT_EQ(parse_severity("off"), Severity::kOff);
  EXPECT_FALSE(parse_severity("fatal").has_value());
}

TEST(Diagnostic, ToStringIncludesLocationSeverityAndRule) {
  Diagnostic diag;
  diag.rule_id = "LRT001";
  diag.severity = Severity::kError;
  diag.location = {"a.htl", 3, 7};
  diag.message = "boom";
  EXPECT_EQ(diag.to_string(), "a.htl:3:7: error: boom [LRT001]");
}

TEST(Diagnostic, EngineAppliesSeverityOverride) {
  DiagnosticEngine engine;
  ASSERT_TRUE(engine.configure_flag("LRT007=error").ok());
  Diagnostic diag;
  diag.rule_id = "LRT007";
  diag.severity = Severity::kWarning;
  EXPECT_TRUE(engine.report(std::move(diag)));
  ASSERT_EQ(engine.diagnostics().size(), 1u);
  EXPECT_EQ(engine.diagnostics()[0].severity, Severity::kError);
  EXPECT_EQ(engine.error_count(), 1);
}

TEST(Diagnostic, EngineDropsDisabledRule) {
  DiagnosticEngine engine;
  engine.configure("LRT006", {.enabled = false, .severity = std::nullopt});
  Diagnostic diag;
  diag.rule_id = "LRT006";
  EXPECT_FALSE(engine.report(std::move(diag)));
  EXPECT_TRUE(engine.diagnostics().empty());
}

TEST(Diagnostic, EngineRejectsMalformedFlag) {
  DiagnosticEngine engine;
  EXPECT_FALSE(engine.configure_flag("LRT001").ok());
  EXPECT_FALSE(engine.configure_flag("LRT001=loud").ok());
}

TEST(Diagnostic, SortByLocationOrdersFileLineColumn) {
  DiagnosticEngine engine;
  Diagnostic late;
  late.rule_id = "LRT005";
  late.location = {"a.htl", 9, 1};
  Diagnostic early;
  early.rule_id = "LRT006";
  early.location = {"a.htl", 2, 4};
  EXPECT_TRUE(engine.report(std::move(late)));
  EXPECT_TRUE(engine.report(std::move(early)));
  engine.sort_by_location();
  EXPECT_EQ(engine.diagnostics()[0].location.line, 2);
  EXPECT_EQ(engine.diagnostics()[1].location.line, 9);
}

TEST(Rules, CatalogFindsRulesByIdAndName) {
  ASSERT_NE(find_rule("LRT004"), nullptr);
  EXPECT_EQ(find_rule("LRT004")->name, "lrc-infeasible");
  ASSERT_NE(find_rule("race-write-write"), nullptr);
  EXPECT_EQ(find_rule("race-write-write")->id, "LRT001");
  EXPECT_EQ(find_rule("no-such-rule"), nullptr);
}

// ---------------------------------------------------------------------------
// Rule passes on fixture programs.

constexpr std::string_view kCleanProgram = R"(program clean {
  communicator raw : real period 5 init 0.0 lrc 0.5;
  communicator mid : real period 5 init 0.0 lrc 0.7;
  communicator act : real period 10 init 0.0 lrc 0.7;
  module sense {
    task t input (raw[0]) output (mid[1]) model series;
    mode main period 10 { invoke t; }
    start main;
  }
  module control {
    task u input (mid[1]) output (act[1]) model series;
    mode main period 10 { invoke u; }
    start main;
  }
  architecture {
    host h1 reliability 0.99;
    host h2 reliability 0.99;
    sensor s1 reliability 0.98;
  }
  mapping {
    map t to h1, h2;
    map u to h1;
    bind raw to s1;
  }
}
)";

TEST(Lint, CleanProgramOnlyNotes) {
  const LintResult result = lint_or_die(kCleanProgram);
  EXPECT_TRUE(result.flattened);
  EXPECT_TRUE(result.arch_checked);
  EXPECT_EQ(result.errors(), 0) << render_text(result.diagnostics);
  EXPECT_EQ(result.warnings(), 0) << render_text(result.diagnostics);
  // act is written but never read: the sole (note) finding.
  EXPECT_TRUE(has_rule(result, kRuleNeverReadOutput));
  EXPECT_TRUE(result.clean());
}

TEST(Lint, DetectsWriteRaceWithinMode) {
  const LintResult result = lint_or_die(R"(program race {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator c : real period 10 init 0.0 lrc 0.9;
  module m {
    task t1 input (raw[0]) output (c[1]) model series;
    task t2 input (raw[0]) output (c[1]) model series;
    mode main period 10 { invoke t1; invoke t2; }
    start main;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRuleWriteRace);
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_NE(diag.message.find("write-write race"), std::string::npos);
  EXPECT_NE(diag.message.find("c[1]"), std::string::npos);
  EXPECT_GT(diag.location.line, 0);
  EXPECT_GT(diag.location.column, 0);
  // The frontend also rejects the program (rule 3), but LRT001 already
  // explains why: no redundant LRT000.
  EXPECT_FALSE(has_rule(result, kRuleCompileError));
  EXPECT_FALSE(result.clean());
}

TEST(Lint, DetectsCrossModuleTwoWriters) {
  const LintResult result = lint_or_die(R"(program race2 {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator c : real period 10 init 0.0 lrc 0.9;
  module a {
    task t1 input (raw[0]) output (c[1]) model series;
    mode main period 10 { invoke t1; }
    start main;
  }
  module b {
    task t2 input (raw[0]) output (c[2]) model series;
    mode main period 10 { invoke t2; }
    start main;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRuleWriteRace);
  EXPECT_NE(diag.message.find("two writers"), std::string::npos);
  EXPECT_NE(diag.message.find("run concurrently"), std::string::npos);
}

TEST(Lint, DetectsInfeasibleLrc) {
  // SRG ceiling of out: sensor 0.9 * task on the single 0.9 host = 0.81,
  // so lrc 0.95 is unachievable under any mapping.
  const LintResult result = lint_or_die(R"(program infeasible {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.95;
  module m {
    task t input (raw[0]) output (out[1]) model series;
    mode main period 10 { invoke t; }
    start main;
  }
  architecture {
    host h1 reliability 0.9;
    sensor s1 reliability 0.9;
  }
  mapping {
    map t to h1;
    bind raw to s1;
  }
}
)");
  ASSERT_TRUE(result.arch_checked);
  const Diagnostic& diag = first_of(result, kRuleLrcInfeasible);
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_NE(diag.message.find("'out'"), std::string::npos);
  EXPECT_NE(diag.message.find("0.81"), std::string::npos);
  EXPECT_FALSE(diag.fixit.empty());
  EXPECT_FALSE(result.clean());
}

TEST(Lint, FeasibleLrcUnderReplicationNotReported) {
  // One 0.9 host cannot meet lrc 0.98 but two can:
  // 1 - (1 - 0.9)^2 = 0.99 >= 0.98. The ceiling uses full replication,
  // so no finding.
  const LintResult result = lint_or_die(R"(program feasible {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.98;
  module m {
    task t input (raw[0]) output (out[1]) model series;
    mode main period 10 { invoke t; }
    start main;
  }
  architecture {
    host h1 reliability 0.9;
    host h2 reliability 0.9;
    sensor s1 reliability 0.999;
  }
  mapping {
    map t to h1;
    bind raw to s1;
  }
}
)");
  ASSERT_TRUE(result.arch_checked);
  EXPECT_FALSE(has_rule(result, kRuleLrcInfeasible))
      << render_text(result.diagnostics);
}

TEST(Lint, DetectsMissingDefault) {
  const LintResult result = lint_or_die(R"(program nodefaults {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[1]) model parallel;
    mode main period 10 { invoke t; }
    start main;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRuleMissingDefault);
  EXPECT_EQ(diag.severity, Severity::kWarning);
  EXPECT_NE(diag.message.find("parallel"), std::string::npos);
  EXPECT_NE(diag.fixit.find("defaults"), std::string::npos);
}

TEST(Lint, DetectsDeadAndNeverReadCommunicators) {
  const LintResult result = lint_or_die(R"(program dead {
  communicator unused : real period 10 init 0.0 lrc 0.5;
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[1]) model series;
    mode main period 10 { invoke t; }
    start main;
  }
}
)");
  const Diagnostic& dead = first_of(result, kRuleDeadCommunicator);
  EXPECT_EQ(dead.severity, Severity::kWarning);
  EXPECT_NE(dead.message.find("'unused'"), std::string::npos);
  EXPECT_EQ(dead.location.line, 2);
  const Diagnostic& never = first_of(result, kRuleNeverReadOutput);
  EXPECT_EQ(never.severity, Severity::kNote);
  EXPECT_NE(never.message.find("'out'"), std::string::npos);
}

TEST(Lint, SwitchConditionCountsAsRead) {
  // `flag` is only consumed by a switch condition — not dead.
  const LintResult result = lint_or_die(R"(program switchread {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator flag : bool period 10 init false lrc 0.5;
  module m {
    task t input (raw[0]) output (flag[1]) model series;
    mode main period 10 { invoke t; switch (flag) to main; }
    start main;
  }
}
)");
  EXPECT_FALSE(has_rule(result, kRuleDeadCommunicator));
  EXPECT_FALSE(has_rule(result, kRuleNeverReadOutput));
}

TEST(Lint, DetectsPeriodMismatch) {
  const LintResult result = lint_or_die(R"(program drift {
  communicator raw : real period 7 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[1]) model series;
    mode main period 10 { invoke t; }
    start main;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRulePeriodMismatch);
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_NE(diag.message.find("does not divide"), std::string::npos);
}

TEST(Lint, DetectsInstanceBeyondModePeriod) {
  const LintResult result = lint_or_die(R"(program beyond {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[3]) model series;
    mode main period 10 { invoke t; }
    start main;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRulePeriodMismatch);
  EXPECT_NE(diag.message.find("beyond the period"), std::string::npos);
}

TEST(Lint, DetectsUnreachableMode) {
  const LintResult result = lint_or_die(R"(program orphanmode {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[1]) model series;
    mode main period 10 { invoke t; }
    mode orphan period 10 { invoke t; }
    start main;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRuleUnreachableMode);
  EXPECT_EQ(diag.severity, Severity::kWarning);
  EXPECT_NE(diag.message.find("'orphan'"), std::string::npos);
  EXPECT_NE(diag.message.find("'main'"), std::string::npos);
}

TEST(Lint, SwitchTargetIsReachable) {
  const LintResult result = lint_or_die(R"(program reach {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator flag : bool period 10 init false lrc 0.5;
  module m {
    task t input (raw[0]) output (flag[1]) model series;
    mode main period 10 { invoke t; switch (flag) to other; }
    mode other period 10 { invoke t; }
    start main;
  }
}
)");
  EXPECT_FALSE(has_rule(result, kRuleUnreachableMode));
}

TEST(Lint, DetectsDuplicateWritePort) {
  const LintResult result = lint_or_die(R"(program dup {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[1], out[1]) model series;
    mode main period 10 { invoke t; }
    start main;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRuleDuplicateWritePort);
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_NE(diag.message.find("rule 4"), std::string::npos);
  EXPECT_FALSE(has_rule(result, kRuleCompileError));
}

TEST(Lint, ReportsUnsafeCycleAsError) {
  const LintResult result = lint_or_die(R"(program unsafe {
  communicator c : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (c[0]) output (c[1]) model series;
    mode main period 10 { invoke t; }
    start main;
  }
}
)");
  EXPECT_TRUE(has_rule(result, kRuleMemoryCycle));
  const Diagnostic& diag = first_of(result, kRuleUnsafeCycle);
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_NE(diag.message.find("independent"), std::string::npos);
  EXPECT_NE(diag.fixit.find("model independent"), std::string::npos);
}

TEST(Lint, SafeCycleIsOnlyAWarning) {
  const LintResult result = lint_or_die(R"(program safe {
  communicator c : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (c[0]) output (c[1]) model independent defaults (0.0);
    mode main period 10 { invoke t; }
    start main;
  }
}
)");
  EXPECT_TRUE(has_rule(result, kRuleMemoryCycle));
  EXPECT_FALSE(has_rule(result, kRuleUnsafeCycle));
  EXPECT_EQ(result.errors(), 0) << render_text(result.diagnostics);
}

TEST(Lint, ParseErrorBecomesLocatedCompileError) {
  LintOptions options;
  options.file = "bad.htl";
  const LintResult result =
      lint_or_die("program broken {\n  communicator ;\n}\n", options);
  const Diagnostic& diag = first_of(result, kRuleCompileError);
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_EQ(diag.location.file, "bad.htl");
  EXPECT_EQ(diag.location.line, 2);
  EXPECT_GT(diag.location.column, 0);
  EXPECT_FALSE(result.flattened);
}

// ---------------------------------------------------------------------------
// Configuration.

TEST(Lint, RuleFlagPromotesSeverity) {
  LintOptions options;
  options.rule_flags = {"missing-default=error"};
  const LintResult result = lint_or_die(R"(program promote {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[1]) model parallel;
    mode main period 10 { invoke t; }
    start main;
  }
}
)",
                                        options);
  EXPECT_EQ(first_of(result, kRuleMissingDefault).severity,
            Severity::kError);
  EXPECT_FALSE(result.clean());
}

TEST(Lint, RuleFlagSilencesRule) {
  LintOptions options;
  options.rule_flags = {"LRT006=off", "LRT007=off"};
  const LintResult result = lint_or_die(R"(program silence {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[1]) model parallel;
    mode main period 10 { invoke t; }
    start main;
  }
}
)",
                                        options);
  EXPECT_FALSE(has_rule(result, kRuleNeverReadOutput));
  EXPECT_FALSE(has_rule(result, kRuleMissingDefault));
}

TEST(Lint, UnknownRuleFlagIsAnError) {
  LintOptions options;
  options.rule_flags = {"LRT999=off"};
  const auto result = lint_source(kCleanProgram, options);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Renderers.

TEST(Render, TextIncludesLocationSeverityRuleAndFixit) {
  const LintResult result = lint_or_die(R"(program textual {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[1]) model parallel;
    mode main period 10 { invoke t; }
    start main;
  }
}
)");
  const std::string text = render_text(result.diagnostics);
  EXPECT_NE(text.find("warning:"), std::string::npos);
  EXPECT_NE(text.find("[LRT007]"), std::string::npos);
  EXPECT_NE(text.find("fix-it:"), std::string::npos);
  EXPECT_NE(text.find(":5:"), std::string::npos);  // task t's line
}

TEST(Render, JsonCarriesCounts) {
  const LintResult result = lint_or_die(kCleanProgram);
  const std::string json = to_json(result.diagnostics);
  EXPECT_NE(json.find("\"diagnostics\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":0"), std::string::npos);
}

TEST(Render, SarifDocumentStructure) {
  LintOptions options;
  options.file = "race.htl";
  const LintResult result = lint_or_die(R"(program race {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator c : real period 10 init 0.0 lrc 0.9;
  module m {
    task t1 input (raw[0]) output (c[1]) model series;
    task t2 input (raw[0]) output (c[1]) model series;
    mode main period 10 { invoke t1; invoke t2; }
    start main;
  }
}
)",
                                        options);
  const std::string sarif = to_sarif(result.diagnostics);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"lrt_lint\""), std::string::npos);
  // The driver advertises the full rule catalog...
  for (const RuleInfo& rule : rule_catalog()) {
    EXPECT_NE(sarif.find("\"id\":\"" + std::string(rule.id) + "\""),
              std::string::npos);
  }
  // ...and the race result carries its physical location.
  EXPECT_NE(sarif.find("\"ruleId\":\"LRT001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"race.htl\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startColumn\""), std::string::npos);
}

TEST(Render, SarifOmitsRegionForWholeFileFindings) {
  std::vector<Diagnostic> diags(1);
  diags[0].rule_id = "LRT000";
  diags[0].severity = Severity::kError;
  diags[0].location = {"x.htl", 0, 0};
  diags[0].message = "whole-file finding";
  const std::string sarif = to_sarif(diags);
  EXPECT_EQ(sarif.find("\"region\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Cross-mode rules over the mode-product supergraph (LRT011-LRT019).

// A race that only exists once module `a` switches into mode `hot` —
// reachable, because task `quiet` writes the guard.
constexpr std::string_view kReachableCrossRace = R"(program xrace {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator go : bool period 10 init false lrc 0.5;
  communicator c : real period 10 init 0.0 lrc 0.5;
  module a {
    task quiet input (raw[0]) output (go[1]) model series;
    task loud input (raw[0]) output (c[1]) model series;
    mode safe period 10 { invoke quiet; switch (go) to hot; }
    mode hot period 10 { invoke loud; }
    start safe;
  }
  module b {
    task writer input (raw[0]) output (c[1]) model series;
    mode main period 10 { invoke writer; }
    start main;
  }
}
)";

// The same shape, but nothing ever writes the guard: the racy mode is
// unreachable in the product, so only the per-mode LRT001 approximation
// fires.
constexpr std::string_view kUnreachableCrossRace = R"(program deadrace {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator go : bool period 10 init false lrc 0.5;
  communicator x : real period 10 init 0.0 lrc 0.5;
  communicator c : real period 10 init 0.0 lrc 0.5;
  module a {
    task quiet input (raw[0]) output (x[1]) model series;
    task loud input (raw[0]) output (c[1]) model series;
    mode safe period 10 { invoke quiet; switch (go) to hot; }
    mode hot period 10 { invoke loud; }
    start safe;
  }
  module b {
    task writer input (raw[0]) output (c[1]) model series;
    mode main period 10 { invoke writer; }
    start main;
  }
}
)";

TEST(ProductLint, CrossModeRaceFiresInReachableCombination) {
  const LintResult result = lint_or_die(kReachableCrossRace);
  const Diagnostic& diag = first_of(result, kRuleCrossModeRace);
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_NE(diag.message.find("mode combination"), std::string::npos);
  EXPECT_NE(diag.message.find("hot"), std::string::npos);
  ASSERT_FALSE(diag.related.empty());
  EXPECT_GT(diag.related[0].location.line, 0);
  EXPECT_GT(result.product_nodes, 1);
}

TEST(ProductLint, CrossModeRaceSilentBehindDeadGuard) {
  // LRT001's module-level approximation still fires (it assumes every
  // invoked pair can co-execute); the product rule knows better. Turn
  // LRT001 off to observe LRT011's precision in isolation.
  LintOptions options;
  options.rule_flags = {"LRT001=off"};
  const LintResult result = lint_or_die(kUnreachableCrossRace, options);
  EXPECT_FALSE(has_rule(result, kRuleCrossModeRace))
      << render_text(result.diagnostics);
  // The dead guard and the product-unreachable mode are the findings.
  EXPECT_TRUE(has_rule(result, kRuleDeadSwitch));
}

TEST(ProductLint, ReadBeforeAnyWriteOnSomePath) {
  const LintResult result = lint_or_die(R"(program earlyread {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator go : bool period 10 init false lrc 0.5;
  communicator data : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.5;
  module producer {
    task idle input (raw[0]) output (go[1]) model series;
    task produce input (raw[0]) output (data[1]) model series;
    mode warmup period 10 { invoke idle; switch (go) to run; }
    mode run period 10 { invoke produce; }
    start warmup;
  }
  module consumer {
    task consume input (data[0]) output (out[1]) model series;
    mode main period 10 { invoke consume; }
    start main;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRuleReadNeverWritten);
  EXPECT_EQ(diag.severity, Severity::kWarning);
  EXPECT_NE(diag.message.find("'data'"), std::string::npos);
  EXPECT_NE(diag.message.find("init"), std::string::npos);
  // Only `data` fires: `raw` has no writer anywhere (a sensor input),
  // and `go` is written in the very node that reads it.
  EXPECT_EQ(std::count_if(result.diagnostics.begin(),
                          result.diagnostics.end(),
                          [](const Diagnostic& d) {
                            return d.rule_id == kRuleReadNeverWritten;
                          }),
            1);
}

TEST(ProductLint, ReadCoLocatedWithWriteIsInitIdiom) {
  // `c[0]` is read at the start of the period and written later in the
  // same mode — the init-read idiom, not a finding.
  const LintResult result = lint_or_die(R"(program initidiom {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator c : real period 5 init 0.0 lrc 0.5;
  module m {
    task t input (raw[0], c[0]) output (c[2])
      model independent defaults (0.0, 0.0);
    mode main period 10 { invoke t; }
    start main;
  }
}
)");
  EXPECT_FALSE(has_rule(result, kRuleReadNeverWritten))
      << render_text(result.diagnostics);
}

TEST(ProductLint, DeadWriteOverwrittenOnEveryPath) {
  const LintResult result = lint_or_die(R"(program wasted {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator g1 : bool period 10 init false lrc 0.5;
  communicator g2 : bool period 10 init false lrc 0.5;
  communicator c : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.5;
  module m {
    task w input (raw[0]) output (c[1], g1[1]) model series;
    task x input (raw[0]) output (c[1], g2[1]) model series;
    task r input (c[0]) output (out[1]) model series;
    mode first period 10 { invoke w; switch (g1) to second; }
    mode second period 10 { invoke x; switch (g2) to third; }
    mode third period 10 { invoke r; }
    start first;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRuleDeadWrite);
  EXPECT_EQ(diag.severity, Severity::kWarning);
  // w's write in `first` is overwritten by x before r can read it...
  EXPECT_NE(diag.message.find("'w'"), std::string::npos);
  EXPECT_NE(diag.message.find("'c[1]'"), std::string::npos);
  // ...but x's write reaches the reader, and a terminal mode without
  // switches is not a livelock.
  EXPECT_EQ(std::count_if(result.diagnostics.begin(),
                          result.diagnostics.end(),
                          [](const Diagnostic& d) {
                            return d.rule_id == kRuleDeadWrite &&
                                   d.message.find("'x'") !=
                                       std::string::npos;
                          }),
            0);
  EXPECT_FALSE(has_rule(result, kRuleSwitchLivelock));
}

TEST(ProductLint, WriteReachingReaderIsNotDead) {
  const LintResult result = lint_or_die(R"(program useful {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator c : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.5;
  module m {
    task w input (raw[0]) output (c[1]) model series;
    task r input (c[1]) output (out[1]) model series;
    mode main period 10 { invoke w; invoke r; }
    start main;
  }
}
)");
  EXPECT_FALSE(has_rule(result, kRuleDeadWrite))
      << render_text(result.diagnostics);
}

TEST(ProductLint, DeadSwitchCarriesDeletionEdit) {
  const LintResult result = lint_or_die(kUnreachableCrossRace);
  const Diagnostic& diag = first_of(result, kRuleDeadSwitch);
  EXPECT_EQ(diag.severity, Severity::kWarning);
  EXPECT_NE(diag.message.find("can never fire"), std::string::npos);
  ASSERT_FALSE(diag.edits.empty());
  EXPECT_EQ(diag.edits[0].kind, FixEdit::Kind::kDeleteStatement);
  // Mode `hot` is switch-reachable for LRT009 but product-unreachable.
  EXPECT_FALSE(has_rule(result, kRuleUnreachableMode));
  EXPECT_EQ(std::count_if(result.diagnostics.begin(),
                          result.diagnostics.end(),
                          [](const Diagnostic& d) {
                            return d.rule_id == kRuleDeadSwitch &&
                                   d.message.find("mode product") !=
                                       std::string::npos;
                          }),
            1);
}

TEST(ProductLint, ModeCombinationLrcInfeasible) {
  // In mode `lo` the output chain runs from the good sensor (ceiling
  // ~0.989 >= 0.8). Switching to `hi` re-sources it from the bad sensor:
  // ceiling ~0.4995 < 0.8, so the constraint is only violated there.
  const LintResult result = lint_or_die(R"(program modeinfeasible {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator raw2 : real period 10 init 0.0 lrc 0.3;
  communicator go : bool period 10 init false lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.8;
  module m {
    task tl input (raw[0]) output (out[1], go[1]) model series;
    task th input (raw2[0]) output (out[1]) model series;
    mode lo period 10 { invoke tl; switch (go) to hi; }
    mode hi period 10 { invoke th; }
    start lo;
  }
  architecture {
    host h1 reliability 0.999;
    sensor good reliability 0.99;
    sensor bad reliability 0.5;
  }
  mapping {
    map tl to h1;
    map th to h1;
    bind raw to good;
    bind raw2 to bad;
  }
}
)");
  ASSERT_TRUE(result.arch_checked);
  // Feasible at start: no LRT004.
  EXPECT_FALSE(has_rule(result, kRuleLrcInfeasible))
      << render_text(result.diagnostics);
  const Diagnostic& diag = first_of(result, kRuleModeLrcInfeasible);
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_NE(diag.message.find("'out'"), std::string::npos);
  EXPECT_NE(diag.message.find("hi"), std::string::npos);
  ASSERT_FALSE(diag.related.empty());  // the switch path that gets there
  EXPECT_FALSE(result.clean());
}

TEST(ProductLint, SwitchLivelockWhenEveryGuardIsDead) {
  const LintResult result = lint_or_die(R"(program livelock {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator stuck : bool period 10 init false lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.5;
  module m {
    task t input (raw[0]) output (out[1]) model series;
    mode main period 10 { invoke t; switch (stuck) to other; }
    mode other period 10 { invoke t; }
    start main;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRuleSwitchLivelock);
  EXPECT_EQ(diag.severity, Severity::kWarning);
  EXPECT_NE(diag.message.find("'main'"), std::string::npos);
  EXPECT_NE(diag.message.find("never be left"), std::string::npos);
  EXPECT_TRUE(has_rule(result, kRuleDeadSwitch));
}

TEST(ProductLint, PeriodDisharmonyAcrossModules) {
  const LintResult result = lint_or_die(R"(program disharmony {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator go : bool period 10 init false lrc 0.5;
  communicator c : real period 10 init 0.0 lrc 0.5;
  communicator d : real period 10 init 0.0 lrc 0.5;
  module a {
    task t1 input (raw[0]) output (go[1]) model series;
    task t2 input (raw[0]) output (c[1]) model series;
    mode fast period 10 { invoke t1; switch (go) to slow; }
    mode slow period 20 { invoke t2; }
    start fast;
  }
  module b {
    task t3 input (raw[0]) output (d[1]) model series;
    mode main period 10 { invoke t3; }
    start main;
  }
}
)");
  const Diagnostic& diag = first_of(result, kRulePeriodDisharmony);
  EXPECT_EQ(diag.severity, Severity::kError);
  EXPECT_NE(diag.message.find("periods disagree"), std::string::npos);
  EXPECT_NE(diag.message.find("a.slow=20"), std::string::npos);
  EXPECT_NE(diag.message.find("b.main=10"), std::string::npos);
  EXPECT_GT(diag.location.line, 0);  // anchored at the switch
  EXPECT_FALSE(result.clean());
}

TEST(ProductLint, RefinementPrecheckTotalityAndInjectivity) {
  const LintResult result = lint_or_die(R"(program child refines parent {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator o1 : real period 10 init 0.0 lrc 0.5;
  communicator o2 : real period 10 init 0.0 lrc 0.5;
  communicator o3 : real period 10 init 0.0 lrc 0.5;
  module m {
    task t1 input (raw[0]) output (o1[1]) model series;
    task t2 input (raw[0]) output (o2[1]) model series;
    task t3 input (raw[0]) output (o3[1]) model series;
    mode main period 10 { invoke t1; invoke t2; invoke t3; }
    start main;
  }
  refine task t1 to p1;
  refine task t2 to p1;
}
)");
  // t3 has no refine declaration (kappa not total), and p1 is targeted
  // twice (kappa not injective).
  const auto count = std::count_if(result.diagnostics.begin(),
                                   result.diagnostics.end(),
                                   [](const Diagnostic& d) {
                                     return d.rule_id ==
                                            kRuleRefinementPrecheck;
                                   });
  EXPECT_EQ(count, 2) << render_text(result.diagnostics);
  bool saw_totality = false;
  bool saw_injectivity = false;
  for (const Diagnostic& diag : result.diagnostics) {
    if (diag.rule_id != kRuleRefinementPrecheck) continue;
    if (diag.message.find("total") != std::string::npos) {
      saw_totality = true;
      EXPECT_NE(diag.message.find("'t3'"), std::string::npos);
    }
    if (diag.message.find("injective") != std::string::npos) {
      saw_injectivity = true;
      ASSERT_FALSE(diag.related.empty());
    }
  }
  EXPECT_TRUE(saw_totality);
  EXPECT_TRUE(saw_injectivity);
}

TEST(ProductLint, NonRefiningProgramSkipsPrecheck) {
  const LintResult result = lint_or_die(kCleanProgram);
  EXPECT_FALSE(has_rule(result, kRuleRefinementPrecheck));
}

TEST(ProductLint, NodeCapDegradesWithNote) {
  LintOptions options;
  options.max_product_nodes = 1;
  const LintResult result = lint_or_die(kReachableCrossRace, options);
  const Diagnostic& diag = first_of(result, kRuleSupergraphCapped);
  EXPECT_EQ(diag.severity, Severity::kNote);
  EXPECT_NE(diag.message.find("cap of 1"), std::string::npos);
  // The product rules stepped aside: the reachable race is NOT reported
  // by LRT011 (LRT001 still covers it per-module).
  EXPECT_FALSE(has_rule(result, kRuleCrossModeRace));
  EXPECT_TRUE(has_rule(result, kRuleWriteRace));
}

TEST(ProductLint, CountsNodesAndIterations) {
  const LintResult result = lint_or_die(kReachableCrossRace);
  EXPECT_EQ(result.product_nodes, 2);  // (safe,main) and (hot,main)
  EXPECT_GT(result.fixpoint_iterations, 0);
}

// ---------------------------------------------------------------------------
// Determinism and deduplication.

TEST(Determinism, RepeatedRunsAreByteIdentical) {
  for (const std::string_view source :
       {kReachableCrossRace, kUnreachableCrossRace, kCleanProgram}) {
    const LintResult first = lint_or_die(source);
    const LintResult second = lint_or_die(source);
    EXPECT_EQ(render_text(first.diagnostics),
              render_text(second.diagnostics));
    EXPECT_EQ(to_sarif(first.diagnostics), to_sarif(second.diagnostics));
    EXPECT_EQ(to_json(first.diagnostics), to_json(second.diagnostics));
  }
}

TEST(Determinism, EngineDedupesIdenticalFindings) {
  DiagnosticEngine engine;
  Diagnostic diag;
  diag.rule_id = "LRT011";
  diag.severity = Severity::kError;
  diag.location = {"a.htl", 4, 2};
  diag.message = "same finding";
  EXPECT_TRUE(engine.report(diag));
  EXPECT_TRUE(engine.report(diag));
  Diagnostic different = diag;
  different.message = "different finding";
  EXPECT_TRUE(engine.report(different));
  engine.sort_and_dedupe();
  ASSERT_EQ(engine.diagnostics().size(), 2u);
  EXPECT_NE(engine.diagnostics()[0].message,
            engine.diagnostics()[1].message);
}

TEST(Determinism, DedupeKeepsSortedOrder) {
  DiagnosticEngine engine;
  for (const int line : {9, 2, 9, 2, 5}) {
    Diagnostic diag;
    diag.rule_id = "LRT005";
    diag.location = {"a.htl", line, 1};
    diag.message.push_back('m');  // operator=("m") trips GCC 12 -Wrestrict
    EXPECT_TRUE(engine.report(std::move(diag)));
  }
  engine.sort_and_dedupe();
  ASSERT_EQ(engine.diagnostics().size(), 3u);
  EXPECT_EQ(engine.diagnostics()[0].location.line, 2);
  EXPECT_EQ(engine.diagnostics()[1].location.line, 5);
  EXPECT_EQ(engine.diagnostics()[2].location.line, 9);
}

// ---------------------------------------------------------------------------
// Fix-its (lint::apply_fixits and the --fix pipeline).

TEST(Fixit, InsertsExplicitDefaults) {
  constexpr std::string_view kSource = R"(program nodefaults {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator flag : bool period 10 init false lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0], flag[0]) output (out[1]) model parallel;
    mode main period 10 { invoke t; }
    start main;
  }
}
)";
  const LintResult before = lint_or_die(kSource);
  ASSERT_TRUE(has_rule(before, kRuleMissingDefault));
  const auto fixed = apply_fixits(kSource, before.diagnostics);
  ASSERT_TRUE(fixed.ok()) << fixed.status().to_string();
  EXPECT_EQ(fixed->applied, 1);
  // One zero literal per input, typed from the communicator declaration.
  EXPECT_NE(fixed->text.find("defaults (0.0, false)"), std::string::npos);
  const LintResult after = lint_or_die(fixed->text);
  EXPECT_FALSE(has_rule(after, kRuleMissingDefault))
      << render_text(after.diagnostics);
  // Applying again finds nothing left to do.
  const auto again = apply_fixits(fixed->text, after.diagnostics);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->applied, 0);
  EXPECT_EQ(again->text, fixed->text);
}

TEST(Fixit, DeletesDeadCommunicatorStatement) {
  constexpr std::string_view kSource = R"(program dead {
  communicator unused : real period 10 init 0.0 lrc 0.5;
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[1]) model series;
    mode main period 10 { invoke t; }
    start main;
  }
}
)";
  const LintResult before = lint_or_die(kSource);
  ASSERT_TRUE(has_rule(before, kRuleDeadCommunicator));
  const auto fixed = apply_fixits(kSource, before.diagnostics);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed->applied, 1);
  EXPECT_EQ(fixed->text.find("unused"), std::string::npos);
  const LintResult after = lint_or_die(fixed->text);
  EXPECT_FALSE(has_rule(after, kRuleDeadCommunicator));
  EXPECT_FALSE(has_rule(after, kRuleCompileError))
      << render_text(after.diagnostics);
}

TEST(Fixit, DeletesDuplicateWritePort) {
  constexpr std::string_view kSource = R"(program dup {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.9;
  module m {
    task t input (raw[0]) output (out[1], out[1]) model series;
    mode main period 10 { invoke t; }
    start main;
  }
}
)";
  const LintResult before = lint_or_die(kSource);
  ASSERT_TRUE(has_rule(before, kRuleDuplicateWritePort));
  const auto fixed = apply_fixits(kSource, before.diagnostics);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed->applied, 1);
  EXPECT_NE(fixed->text.find("output (out[1])"), std::string::npos);
  const LintResult after = lint_or_die(fixed->text);
  EXPECT_FALSE(has_rule(after, kRuleDuplicateWritePort));
  EXPECT_FALSE(has_rule(after, kRuleCompileError))
      << render_text(after.diagnostics);
}

TEST(Fixit, DeletesDeadSwitchAndRelintsWithoutErrors) {
  constexpr std::string_view kSource = R"(program livelock {
  communicator raw : real period 10 init 0.0 lrc 0.5;
  communicator stuck : bool period 10 init false lrc 0.5;
  communicator out : real period 10 init 0.0 lrc 0.5;
  module m {
    task t input (raw[0]) output (out[1]) model series;
    mode main period 10 { invoke t; switch (stuck) to other; }
    mode other period 10 { invoke t; }
    start main;
  }
}
)";
  const LintResult before = lint_or_die(kSource);
  ASSERT_TRUE(has_rule(before, kRuleDeadSwitch));
  const auto fixed = apply_fixits(kSource, before.diagnostics);
  ASSERT_TRUE(fixed.ok());
  EXPECT_GE(fixed->applied, 1);
  EXPECT_EQ(fixed->text.find("switch"), std::string::npos);
  const LintResult after = lint_or_die(fixed->text);
  EXPECT_FALSE(has_rule(after, kRuleDeadSwitch));
  EXPECT_FALSE(has_rule(after, kRuleSwitchLivelock));
  EXPECT_EQ(after.errors(), 0) << render_text(after.diagnostics);
}

TEST(Fixit, AnchorOutsideSourceIsAnError) {
  std::vector<Diagnostic> diags(1);
  diags[0].edits.push_back(
      {FixEdit::Kind::kDeleteStatement, /*line=*/99, /*column=*/1, ""});
  const auto fixed = apply_fixits("one line only\n", diags);
  EXPECT_EQ(fixed.status().code(), StatusCode::kInvalidArgument);
}

TEST(Fixit, OverlappingEditsApplyFirstAndSkipRest) {
  // Two deletions of overlapping statements: one applies, one is
  // skipped and counted.
  std::vector<Diagnostic> diags(2);
  diags[0].edits.push_back({FixEdit::Kind::kDeleteStatement, 1, 1, ""});
  diags[1].edits.push_back({FixEdit::Kind::kDeleteStatement, 1, 3, ""});
  const auto fixed = apply_fixits("ab cd;\nrest;\n", diags);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed->applied, 1);
  EXPECT_EQ(fixed->skipped, 1);
  EXPECT_NE(fixed->text.find("rest;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Related locations in the renderers.

TEST(Render, TextShowsRelatedLocations) {
  const LintResult result = lint_or_die(kReachableCrossRace);
  const std::string text = render_text(result.diagnostics);
  EXPECT_NE(text.find("related:"), std::string::npos);
}

TEST(Render, SarifCarriesRelatedLocations) {
  LintOptions options;
  options.file = "xrace.htl";
  const LintResult result = lint_or_die(kReachableCrossRace, options);
  const std::string sarif = to_sarif(result.diagnostics);
  EXPECT_NE(sarif.find("\"relatedLocations\""), std::string::npos);
  EXPECT_NE(sarif.find("the other writer"), std::string::npos);
  const std::string json = to_json(result.diagnostics);
  EXPECT_NE(json.find("\"related\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The CI gate condition: shipped example programs lint clean.

TEST(Lint, ShippedExamplesHaveNoErrors) {
  const std::filesystem::path dir = LRT_EXAMPLES_HTL_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int linted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".htl") continue;
    std::ifstream file(entry.path());
    ASSERT_TRUE(file.good()) << entry.path();
    std::ostringstream buffer;
    buffer << file.rdbuf();
    LintOptions options;
    options.file = entry.path().filename().string();
    const LintResult result = lint_or_die(buffer.str(), options);
    EXPECT_EQ(result.errors(), 0)
        << entry.path() << ":\n" << render_text(result.diagnostics);
    EXPECT_TRUE(result.flattened) << entry.path();
    ++linted;
  }
  EXPECT_GE(linted, 5);
}

}  // namespace
}  // namespace lrt::lint
