#include "lint/rules.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/strings.h"
#include "synth/synthesis.h"

namespace lrt::lint {
namespace {

constexpr std::array<RuleInfo, 20> kCatalog = {{
    {kRuleCompileError, "compile-error", Severity::kError,
     "the HTL frontend rejected the program; lint passes that need the "
     "flattened specification were skipped"},
    {kRuleWriteRace, "race-write-write", Severity::kError,
     "two co-invocable tasks write the same communicator (instance) — "
     "Prop. 1 certifies reliability only for race-free specifications "
     "(rule 3)"},
    {kRuleMemoryCycle, "memory-cycle", Severity::kWarning,
     "the specification has a communicator cycle (memory), so Prop. 1 "
     "does not apply directly (Section 3)"},
    {kRuleUnsafeCycle, "unsafe-cycle", Severity::kError,
     "a communicator cycle contains no independent-model task: the SRG "
     "induction is ill-founded and the long-run reliability is 0"},
    {kRuleLrcInfeasible, "lrc-infeasible", Severity::kError,
     "mu_c exceeds the SRG ceiling of full replication on the declared "
     "architecture — no mapping can satisfy the constraint"},
    {kRuleDeadCommunicator, "dead-communicator", Severity::kWarning,
     "communicator is never read, written, or used as a switch condition"},
    {kRuleNeverReadOutput, "never-read-output", Severity::kNote,
     "task output communicator is never read — expected for actuator "
     "outputs, dead weight otherwise"},
    {kRuleMissingDefault, "missing-default", Severity::kWarning,
     "parallel/independent-model task declares no defaults; the compiler "
     "substitutes zeros, which is rarely the intended degraded value"},
    {kRulePeriodMismatch, "period-mismatch", Severity::kError,
     "communicator period does not divide the invoking mode period, or a "
     "port instance lies beyond the mode period"},
    {kRuleUnreachableMode, "unreachable-mode", Severity::kWarning,
     "mode is not reachable from the start mode via switches"},
    {kRuleDuplicateWritePort, "duplicate-write-port", Severity::kError,
     "a task writes the same communicator instance more than once "
     "(rule 4)"},
    {kRuleCrossModeRace, "cross-mode-race", Severity::kError,
     "in a reachable mode combination, tasks of different modules write "
     "the same communicator — the whole-program refinement of LRT001 over "
     "the mode-product supergraph"},
    {kRuleReadNeverWritten, "read-never-written", Severity::kWarning,
     "a communicator can be read before any task has written it on some "
     "switch path from the start modes (may analysis); the reader sees "
     "only the declared init value"},
    {kRuleDeadWrite, "dead-write", Severity::kWarning,
     "a write is overwritten before any task or switch reads it on every "
     "switch path (must analysis) — the computation is wasted"},
    {kRuleDeadSwitch, "dead-switch", Severity::kWarning,
     "a switch guard can never become true (init false and no reachable "
     "writer), or a mode never appears in any reachable mode combination"},
    {kRuleModeLrcInfeasible, "mode-lrc-infeasible", Severity::kError,
     "a reachable mode combination has an LRC above its SRG ceiling of "
     "full replication — entering it makes the constraint unsatisfiable "
     "even though the start combination is feasible"},
    {kRuleSwitchLivelock, "switch-livelock", Severity::kWarning,
     "a reachable mode declares switches but every guard is statically "
     "dead — the mode can never be left despite trying to"},
    {kRulePeriodDisharmony, "switch-period-disharmony", Severity::kError,
     "switching leads to a reachable mode combination with unequal mode "
     "periods, which the flattening subset rejects"},
    {kRuleRefinementPrecheck, "refinement-precheck", Severity::kWarning,
     "the refine declarations cannot form a valid task-map kappa "
     "(total, functional, injective), so check_refinement must fail"},
    {kRuleSupergraphCapped, "supergraph-capped", Severity::kNote,
     "the mode-product supergraph exceeded the node cap; cross-mode rules "
     "LRT011-LRT017 degraded to per-module analysis"},
}};

SourceLocation at(const SourceLocation& origin, int line, int column) {
  return {origin.file, line, column};
}

/// Name -> declaration lookup for communicators.
std::map<std::string_view, const htl::CommunicatorAst*> comm_index(
    const htl::ProgramAst& program) {
  std::map<std::string_view, const htl::CommunicatorAst*> index;
  for (const htl::CommunicatorAst& comm : program.communicators) {
    index.emplace(comm.name, &comm);
  }
  return index;
}

/// Name -> declaration lookup for one module's tasks.
std::map<std::string_view, const htl::TaskAst*> task_index(
    const htl::ModuleAst& module) {
  std::map<std::string_view, const htl::TaskAst*> index;
  for (const htl::TaskAst& task : module.tasks) {
    index.emplace(task.name, &task);
  }
  return index;
}

/// All tasks of `module` invoked by at least one of its modes.
std::vector<const htl::TaskAst*> invoked_tasks(
    const htl::ModuleAst& module) {
  const auto index = task_index(module);
  std::set<const htl::TaskAst*> seen;
  std::vector<const htl::TaskAst*> tasks;
  for (const htl::ModeAst& mode : module.modes) {
    for (const std::string& name : mode.invokes) {
      const auto it = index.find(name);
      if (it != index.end() && seen.insert(it->second).second) {
        tasks.push_back(it->second);
      }
    }
  }
  return tasks;
}

/// Reports LRT001 findings for one co-invocable task pair.
void report_pair_races(const htl::TaskAst& first, const htl::TaskAst& second,
                       std::string_view how, const SourceLocation& origin,
                       DiagnosticEngine& engine) {
  std::map<std::string_view, const htl::PortAst*> first_writes;
  for (const htl::PortAst& port : first.outputs) {
    first_writes.emplace(port.communicator, &port);
  }
  std::set<std::string_view> reported;
  for (const htl::PortAst& port : second.outputs) {
    const auto it = first_writes.find(port.communicator);
    if (it == first_writes.end()) continue;
    if (!reported.insert(port.communicator).second) continue;
    const bool same_instance = std::any_of(
        first.outputs.begin(), first.outputs.end(),
        [&port](const htl::PortAst& other) {
          return other.communicator == port.communicator &&
                 other.instance == port.instance;
        });
    std::string message =
        same_instance
            ? "write-write race on communicator instance '" +
                  port.communicator + "[" + std::to_string(port.instance) +
                  "]': "
            : "communicator '" + port.communicator +
                  "' has two writers (rule 3): ";
    message += "task '" + first.name + "' (line " +
               std::to_string(it->second->line) + ") and task '" +
               second.name + "' " + std::string(how);
    Diagnostic diag;
    diag.location = at(origin, port.line, port.column);
    diag.message = std::move(message);
    diag.fixit = "route one of the writers through a separate communicator";
    diag.related.push_back(
        {at(origin, it->second->line, it->second->column),
         "the other writer: task '" + first.name + "' writes '" +
             port.communicator + "' here"});
    report_rule(engine, kRuleWriteRace, std::move(diag));
  }
}

}  // namespace

std::span<const RuleInfo> rule_catalog() { return kCatalog; }

const RuleInfo* find_rule(std::string_view id_or_name) {
  for (const RuleInfo& rule : kCatalog) {
    if (rule.id == id_or_name || rule.name == id_or_name) return &rule;
  }
  return nullptr;
}

bool report_rule(DiagnosticEngine& engine, std::string_view rule_id,
                 Diagnostic diag) {
  const RuleInfo* rule = find_rule(rule_id);
  diag.rule_id = std::string(rule_id);
  diag.rule_name = rule != nullptr ? std::string(rule->name) : "";
  diag.severity =
      rule != nullptr ? rule->default_severity : Severity::kWarning;
  return engine.report(std::move(diag));
}

bool report_rule(DiagnosticEngine& engine, std::string_view rule_id,
                 SourceLocation location, std::string message,
                 std::string fixit) {
  Diagnostic diag;
  diag.location = std::move(location);
  diag.message = std::move(message);
  diag.fixit = std::move(fixit);
  return report_rule(engine, rule_id, std::move(diag));
}

void check_write_races(const htl::ProgramAst& program,
                       const SourceLocation& origin,
                       DiagnosticEngine& engine) {
  // Within a module, tasks co-execute iff one mode invokes both; across
  // modules every invoked pair can co-execute (one mode runs per module).
  for (const htl::ModuleAst& module : program.modules) {
    const auto index = task_index(module);
    for (const htl::ModeAst& mode : module.modes) {
      for (std::size_t i = 0; i < mode.invokes.size(); ++i) {
        for (std::size_t j = i + 1; j < mode.invokes.size(); ++j) {
          const auto a = index.find(mode.invokes[i]);
          const auto b = index.find(mode.invokes[j]);
          if (a == index.end() || b == index.end()) continue;
          report_pair_races(*a->second, *b->second,
                            "(both invoked by mode '" + mode.name + "')",
                            origin, engine);
        }
      }
    }
  }
  for (std::size_t m1 = 0; m1 < program.modules.size(); ++m1) {
    const auto tasks1 = invoked_tasks(program.modules[m1]);
    for (std::size_t m2 = m1 + 1; m2 < program.modules.size(); ++m2) {
      const auto tasks2 = invoked_tasks(program.modules[m2]);
      for (const htl::TaskAst* t1 : tasks1) {
        for (const htl::TaskAst* t2 : tasks2) {
          report_pair_races(
              *t1, *t2,
              "(modules '" + program.modules[m1].name + "' and '" +
                  program.modules[m2].name + "' run concurrently)",
              origin, engine);
        }
      }
    }
  }
}

void check_duplicate_write_ports(const htl::ProgramAst& program,
                                 const SourceLocation& origin,
                                 DiagnosticEngine& engine) {
  for (const htl::ModuleAst& module : program.modules) {
    for (const htl::TaskAst& task : module.tasks) {
      std::set<std::pair<std::string_view, std::int64_t>> seen;
      for (const htl::PortAst& port : task.outputs) {
        if (seen.emplace(port.communicator, port.instance).second) continue;
        Diagnostic diag;
        diag.location = at(origin, port.line, port.column);
        diag.message = "task '" + task.name + "' writes '" +
                       port.communicator + "[" +
                       std::to_string(port.instance) +
                       "]' more than once (rule 4)";
        diag.fixit = "drop the repeated output port";
        diag.edits.push_back(
            {FixEdit::Kind::kDeletePortRef, port.line, port.column, ""});
        report_rule(engine, kRuleDuplicateWritePort, std::move(diag));
      }
    }
  }
}

void check_missing_defaults(const htl::ProgramAst& program,
                            const SourceLocation& origin,
                            DiagnosticEngine& engine) {
  const auto comms = comm_index(program);
  for (const htl::ModuleAst& module : program.modules) {
    for (const htl::TaskAst& task : module.tasks) {
      if (task.model == spec::FailureModel::kSeries) continue;
      if (!task.defaults.empty()) continue;
      Diagnostic diag;
      diag.location = at(origin, task.line, task.column);
      diag.message = "task '" + task.name + "' uses the " +
                     std::string(spec::to_string(task.model)) +
                     " input-failure model but declares no defaults; "
                     "unreliable inputs will be replaced by zeros";
      diag.fixit = "add 'defaults (...)' with one literal per input port";
      if (!task.inputs.empty()) {
        // The mechanical edit spells out the zeros the compiler would
        // substitute, making the degraded values explicit and editable.
        std::vector<std::string> zeros;
        zeros.reserve(task.inputs.size());
        for (const htl::PortAst& port : task.inputs) {
          const auto it = comms.find(port.communicator);
          const spec::ValueType type = it != comms.end()
                                           ? it->second->type
                                           : spec::ValueType::kReal;
          switch (type) {
            case spec::ValueType::kReal: zeros.emplace_back("0.0"); break;
            case spec::ValueType::kInt: zeros.emplace_back("0"); break;
            case spec::ValueType::kBool: zeros.emplace_back("false"); break;
          }
        }
        diag.edits.push_back({FixEdit::Kind::kInsertBeforeStatementEnd,
                              task.line, task.column,
                              " defaults (" + join(zeros, ", ") + ")"});
      }
      report_rule(engine, kRuleMissingDefault, std::move(diag));
    }
  }
}

void check_period_mismatch(const htl::ProgramAst& program,
                           const SourceLocation& origin,
                           DiagnosticEngine& engine) {
  const auto comms = comm_index(program);
  for (const htl::ModuleAst& module : program.modules) {
    const auto tasks = task_index(module);
    for (const htl::ModeAst& mode : module.modes) {
      if (mode.period <= 0) continue;
      for (const std::string& name : mode.invokes) {
        const auto task_it = tasks.find(name);
        if (task_it == tasks.end()) continue;
        const htl::TaskAst& task = *task_it->second;
        const auto check_port = [&](const htl::PortAst& port) {
          const auto comm_it = comms.find(port.communicator);
          if (comm_it == comms.end()) return;
          const htl::CommunicatorAst& comm = *comm_it->second;
          if (comm.period <= 0) return;
          if (mode.period % comm.period != 0) {
            report_rule(
                engine, kRulePeriodMismatch,
                at(origin, port.line, port.column),
                "communicator '" + comm.name + "' (period " +
                    std::to_string(comm.period) +
                    ") does not divide the period " +
                    std::to_string(mode.period) + " of mode '" + mode.name +
                    "' invoking task '" + task.name +
                    "'; instances drift across mode periods",
                "make the mode period a multiple of the communicator "
                "period");
          } else if (port.instance * comm.period > mode.period) {
            report_rule(
                engine, kRulePeriodMismatch,
                at(origin, port.line, port.column),
                "port '" + comm.name + "[" + std::to_string(port.instance) +
                    "]' of task '" + task.name + "' lies at time " +
                    std::to_string(port.instance * comm.period) +
                    ", beyond the period " + std::to_string(mode.period) +
                    " of mode '" + mode.name + "'",
                "lower the instance or widen the mode period");
          }
        };
        for (const htl::PortAst& port : task.inputs) check_port(port);
        for (const htl::PortAst& port : task.outputs) check_port(port);
      }
    }
  }
}

void check_unreachable_modes(const htl::ProgramAst& program,
                             const SourceLocation& origin,
                             DiagnosticEngine& engine) {
  for (const htl::ModuleAst& module : program.modules) {
    if (module.modes.empty()) continue;
    const std::string& start = module.start_mode.empty()
                                   ? module.modes.front().name
                                   : module.start_mode;
    std::set<std::string_view> reachable;
    std::vector<std::string_view> worklist = {start};
    while (!worklist.empty()) {
      const std::string_view current = worklist.back();
      worklist.pop_back();
      if (!reachable.insert(current).second) continue;
      for (const htl::ModeAst& mode : module.modes) {
        if (mode.name != current) continue;
        for (const htl::SwitchAst& edge : mode.switches) {
          worklist.push_back(edge.target);
        }
      }
    }
    for (const htl::ModeAst& mode : module.modes) {
      if (reachable.count(mode.name) != 0) continue;
      report_rule(engine, kRuleUnreachableMode,
                  at(origin, mode.line, mode.column),
                  "mode '" + mode.name + "' of module '" + module.name +
                      "' is not reachable from start mode '" + start +
                      "' via switches",
                  "add a switch into the mode or remove it");
    }
  }
}

void check_dead_communicators(const htl::ProgramAst& program,
                              const SourceLocation& origin,
                              DiagnosticEngine& engine) {
  std::set<std::string_view> read;
  std::set<std::string_view> written;
  for (const htl::ModuleAst& module : program.modules) {
    for (const htl::TaskAst& task : module.tasks) {
      for (const htl::PortAst& port : task.inputs) {
        read.insert(port.communicator);
      }
      for (const htl::PortAst& port : task.outputs) {
        written.insert(port.communicator);
      }
    }
    for (const htl::ModeAst& mode : module.modes) {
      for (const htl::SwitchAst& edge : mode.switches) {
        read.insert(edge.condition);
      }
    }
  }
  for (const htl::CommunicatorAst& comm : program.communicators) {
    const bool is_read = read.count(comm.name) != 0;
    const bool is_written = written.count(comm.name) != 0;
    if (!is_read && !is_written) {
      Diagnostic diag;
      diag.location = at(origin, comm.line, comm.column);
      diag.message = "communicator '" + comm.name +
                     "' is never read, written, or used as a switch "
                     "condition";
      diag.fixit = "remove the declaration";
      diag.edits.push_back(
          {FixEdit::Kind::kDeleteStatement, comm.line, comm.column, ""});
      report_rule(engine, kRuleDeadCommunicator, std::move(diag));
    } else if (is_written && !is_read) {
      report_rule(engine, kRuleNeverReadOutput,
                  at(origin, comm.line, comm.column),
                  "communicator '" + comm.name +
                      "' is written but never read — fine for an actuator "
                      "output, dead weight otherwise");
    }
  }
}

void check_cycles(const htl::ProgramAst& program,
                  const spec::Specification& spec,
                  const SourceLocation& origin, DiagnosticEngine& engine) {
  if (spec.is_memory_free()) return;
  const auto comms = comm_index(program);
  const auto locate = [&](spec::CommId id) {
    const auto it = comms.find(spec.communicator(id).name);
    if (it == comms.end()) return at(origin, 0, 0);
    return at(origin, it->second->line, it->second->column);
  };
  for (const std::vector<spec::CommId>& cycle : spec.cycles()) {
    std::vector<std::string> names;
    names.reserve(cycle.size());
    for (const spec::CommId id : cycle) {
      names.push_back(spec.communicator(id).name);
    }
    report_rule(engine, kRuleMemoryCycle, locate(cycle.front()),
                "communicator cycle {" + join(names, ", ") +
                    "}: the specification has memory, so Prop. 1 does not "
                    "apply directly (Section 3)");
  }
  if (!spec.is_cycle_safe()) {
    report_rule(engine, kRuleUnsafeCycle,
                locate(spec.cycles().front().front()),
                "a communicator cycle contains no independent-model task; "
                "the SRG induction is ill-founded and the long-run "
                "reliability of the cycle is 0:\n" +
                    spec.describe_cycles(),
                "give one task in each cycle 'model independent' (with "
                "defaults)");
  }
}

void check_lrc_feasibility(const htl::ProgramAst& program,
                           const spec::Specification& spec,
                           const arch::Architecture& arch,
                           const SourceLocation& origin,
                           DiagnosticEngine& engine) {
  std::vector<impl::ImplementationConfig::SensorBinding> bindings;
  if (program.mapping.has_value()) {
    for (const htl::BindAst& bind : program.mapping->binds) {
      bindings.push_back({bind.communicator, bind.sensor});
    }
  }
  const auto ceiling =
      synth::max_achievable_srgs(spec, arch, std::move(bindings));
  // An unbindable or cyclically unsafe specification is reported by other
  // rules (LRT000/LRT003); feasibility is simply not checkable here.
  if (!ceiling.ok()) return;
  const auto comms = comm_index(program);
  for (spec::CommId c = 0;
       c < static_cast<spec::CommId>(spec.communicators().size()); ++c) {
    const spec::Communicator& comm = spec.communicator(c);
    const double max_srg = (*ceiling)[static_cast<std::size_t>(c)];
    if (comm.lrc <= max_srg + 1e-12) continue;
    const auto it = comms.find(comm.name);
    const SourceLocation location =
        it == comms.end()
            ? at(origin, 0, 0)
            : at(origin, it->second->line, it->second->column);
    report_rule(
        engine, kRuleLrcInfeasible, location,
        "lrc " + format_double(comm.lrc) + " of communicator '" +
            comm.name + "' exceeds the maximum achievable SRG " +
            format_double(max_srg) +
            " under full replication on this architecture; no mapping "
            "(or synthesis result) can satisfy it",
        "lower the lrc to at most " + format_double(max_srg) +
            " or add more reliable hosts/sensors");
  }
}

}  // namespace lrt::lint
