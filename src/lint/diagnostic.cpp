#include "lint/diagnostic.h"

#include <algorithm>
#include <tuple>

namespace lrt::lint {

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kOff: return "off";
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::optional<Severity> parse_severity(std::string_view text) {
  if (text == "off") return Severity::kOff;
  if (text == "note") return Severity::kNote;
  if (text == "warning") return Severity::kWarning;
  if (text == "error") return Severity::kError;
  return std::nullopt;
}

std::string SourceLocation::to_string() const {
  std::string out = file;
  if (line > 0) {
    out += ':';
    out += std::to_string(line);
    if (column > 0) {
      out += ':';
      out += std::to_string(column);
    }
  }
  return out;
}

std::string Diagnostic::to_string() const {
  std::string out = location.to_string();
  if (!out.empty()) out += ": ";
  out += std::string(lint::to_string(severity)) + ": " + message + " [" +
         rule_id + "]";
  return out;
}

void DiagnosticEngine::configure(std::string_view rule_key,
                                 RuleConfig config) {
  configs_[std::string(rule_key)] = config;
}

Status DiagnosticEngine::configure_flag(std::string_view flag) {
  const std::size_t eq = flag.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 >= flag.size()) {
    return InvalidArgumentError("rule flag '" + std::string(flag) +
                                "' is not of the form <rule>=<severity>");
  }
  const std::string_view key = flag.substr(0, eq);
  const auto severity = parse_severity(flag.substr(eq + 1));
  if (!severity.has_value()) {
    return InvalidArgumentError(
        "rule flag '" + std::string(flag) +
        "' has unknown severity (want off, note, warning, or error)");
  }
  RuleConfig config;
  if (*severity == Severity::kOff) {
    config.enabled = false;
  } else {
    config.severity = *severity;
  }
  configure(key, config);
  return Status::Ok();
}

const DiagnosticEngine::RuleConfig* DiagnosticEngine::config_for(
    const Diagnostic& diag) const {
  auto it = configs_.find(diag.rule_id);
  if (it == configs_.end()) it = configs_.find(diag.rule_name);
  return it == configs_.end() ? nullptr : &it->second;
}

bool DiagnosticEngine::report(Diagnostic diag) {
  if (const RuleConfig* config = config_for(diag)) {
    if (!config->enabled) return false;
    if (config->severity.has_value()) diag.severity = *config->severity;
  }
  diagnostics_.push_back(std::move(diag));
  return true;
}

void DiagnosticEngine::sort_by_location() {
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.location.file, a.location.line,
                                     a.location.column, a.rule_id) <
                            std::tie(b.location.file, b.location.line,
                                     b.location.column, b.rule_id);
                   });
}

void DiagnosticEngine::sort_and_dedupe() {
  // Refines sort_by_location's key with (message, fixit) so identical
  // findings are adjacent even when a different message shares their
  // location, then drops exact duplicates.
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.location.file, a.location.line,
                                     a.location.column, a.rule_id, a.message,
                                     a.fixit) <
                            std::tie(b.location.file, b.location.line,
                                     b.location.column, b.rule_id, b.message,
                                     b.fixit);
                   });
  const auto last = std::unique(
      diagnostics_.begin(), diagnostics_.end(),
      [](const Diagnostic& a, const Diagnostic& b) {
        return a.rule_id == b.rule_id && a.severity == b.severity &&
               a.location.file == b.location.file &&
               a.location.line == b.location.line &&
               a.location.column == b.location.column &&
               a.message == b.message && a.fixit == b.fixit &&
               a.related == b.related && a.edits == b.edits;
      });
  diagnostics_.erase(last, diagnostics_.end());
}

int DiagnosticEngine::count(Severity severity) const {
  return static_cast<int>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [severity](const Diagnostic& diag) {
                      return diag.severity == severity;
                    }));
}

}  // namespace lrt::lint
