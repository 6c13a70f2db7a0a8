#include "ecode/program.h"

#include <algorithm>
#include <map>
#include <set>

#include "support/math_util.h"

namespace lrt::ecode {

std::string_view to_string(Opcode op) {
  switch (op) {
    case Opcode::kCallSensor: return "call sensor";
    case Opcode::kCallVote: return "call vote";
    case Opcode::kCallActuate: return "call actuate";
    case Opcode::kCallLatch: return "call latch";
    case Opcode::kRelease: return "release";
    case Opcode::kFuture: return "future";
    case Opcode::kHalt: return "halt";
  }
  return "?";
}

std::string EcodeProgram::disassemble(const spec::Specification& spec) const {
  std::string out =
      "; e-code for host " + std::to_string(host) + ", period " +
      std::to_string(period) + "\n";
  std::map<int, spec::Time> block_of;
  for (const auto& [tick, address] : blocks) block_of[address] = tick;
  for (std::size_t addr = 0; addr < code.size(); ++addr) {
    const auto block = block_of.find(static_cast<int>(addr));
    if (block != block_of.end()) {
      out += '@';
      out += std::to_string(block->second);
      out += ":\n";
    }
    const Instruction& inst = code[addr];
    out += "  " + std::string(to_string(inst.op));
    switch (inst.op) {
      case Opcode::kCallSensor:
      case Opcode::kCallVote:
      case Opcode::kCallActuate:
        out += "(" + spec.communicator(inst.arg0).name + ")";
        break;
      case Opcode::kCallLatch:
        out += "(" + spec.task(inst.arg0).name + ", in " +
               std::to_string(inst.arg1) + ")";
        break;
      case Opcode::kRelease:
        out += "(" + spec.task(inst.arg0).name + ")";
        break;
      case Opcode::kFuture:
        out += "(+";
        out += std::to_string(inst.arg0);
        out += ", @";
        out += std::to_string(inst.arg1);
        out += ')';
        break;
      case Opcode::kHalt:
        break;
    }
    out += "\n";
  }
  return out;
}

Result<EcodeProgram> generate_ecode(const impl::Implementation& impl,
                                    arch::HostId host,
                                    const CodegenOptions& options) {
  const spec::Specification& spec = impl.specification();
  if (host < 0 ||
      host >= static_cast<arch::HostId>(impl.architecture().hosts().size())) {
    return OutOfRangeError("generate_ecode: host " + std::to_string(host) +
                           " out of range");
  }

  std::vector<bool> is_actuator(spec.communicators().size(), false);
  if (options.actuator_comms.empty()) {
    for (spec::CommId c = 0;
         c < static_cast<spec::CommId>(spec.communicators().size()); ++c) {
      is_actuator[static_cast<std::size_t>(c)] =
          spec.is_output_communicator(c) && !spec.is_input_communicator(c);
    }
  } else {
    for (const std::string& name : options.actuator_comms) {
      const auto comm = spec.find_communicator(name);
      if (!comm.has_value()) {
        return NotFoundError("generate_ecode: unknown actuator "
                             "communicator '" + name + "'");
      }
      is_actuator[static_cast<std::size_t>(*comm)] = true;
    }
  }

  // Collect, per relative tick, the work of each phase. Every host votes on
  // every communicator (all communicators are replicated on all hosts);
  // only the hosts in I(t) latch and release t.
  struct TickWork {
    std::vector<spec::CommId> sensor_updates;
    /// (communicator, first absolute instant the write is due) — the vote
    /// driver is a no-op before that instant (nothing has been released).
    std::vector<std::pair<spec::CommId, spec::Time>> votes;
    std::vector<spec::CommId> actuations;
    std::vector<std::pair<spec::TaskId, int>> latches;
    std::vector<spec::TaskId> releases;
  };
  std::map<spec::Time, TickWork> ticks;
  const spec::Time period = spec.hyperperiod();

  for (spec::CommId c = 0;
       c < static_cast<spec::CommId>(spec.communicators().size()); ++c) {
    const spec::Communicator& comm = spec.communicator(c);
    if (spec.is_input_communicator(c) && !spec.readers_of(c).empty()) {
      for (spec::Time t = 0; t < period; t += comm.period) {
        ticks[t].sensor_updates.push_back(c);
      }
    }
    const auto writer = spec.writer_of(c);
    if (writer.has_value()) {
      for (const spec::PortRef& port : spec.task(*writer).outputs) {
        if (port.comm != c) continue;
        const spec::Time instant = comm.period * port.instance;
        ticks[instant % period].votes.emplace_back(c, instant);
      }
    }
    if (is_actuator[static_cast<std::size_t>(c)] && host == options.io_host) {
      for (spec::Time t = 0; t < period; t += comm.period) {
        ticks[t].actuations.push_back(c);
      }
    }
  }

  for (spec::TaskId t = 0; t < static_cast<spec::TaskId>(spec.tasks().size());
       ++t) {
    const auto& hosts = impl.hosts_for(t);
    if (std::find(hosts.begin(), hosts.end(), host) == hosts.end()) continue;
    const spec::Task& task = spec.task(t);
    for (int j = 0; j < static_cast<int>(task.inputs.size()); ++j) {
      const spec::PortRef& port = task.inputs[static_cast<std::size_t>(j)];
      const spec::Time instant =
          spec.communicator(port.comm).period * port.instance;
      ticks[instant].latches.emplace_back(t, j);
    }
    ticks[spec.read_time(t)].releases.push_back(t);
  }

  // Emit one reaction block per active tick, ordered: sensor/vote,
  // actuate, latch, release, future, halt.
  EcodeProgram program;
  program.host = host;
  program.period = period;
  std::vector<spec::Time> tick_times;
  for (const auto& [time, work] : ticks) {
    (void)work;
    tick_times.push_back(time);
  }
  if (tick_times.empty()) tick_times.push_back(0);

  std::vector<int> future_fixups;  // addresses of future instructions
  for (std::size_t k = 0; k < tick_times.size(); ++k) {
    const spec::Time now = tick_times[k];
    program.blocks.emplace_back(now, static_cast<int>(program.code.size()));
    const TickWork& work = ticks[now];
    for (const spec::CommId c : work.sensor_updates) {
      program.code.push_back({Opcode::kCallSensor, c, 0});
    }
    for (const auto& [c, instant] : work.votes) {
      program.code.push_back(
          {Opcode::kCallVote, c, static_cast<std::int32_t>(instant)});
    }
    for (const spec::CommId c : work.actuations) {
      program.code.push_back({Opcode::kCallActuate, c, 0});
    }
    for (const auto& [task, input] : work.latches) {
      program.code.push_back({Opcode::kCallLatch, task, input});
    }
    for (const spec::TaskId task : work.releases) {
      program.code.push_back({Opcode::kRelease, task, 0});
    }
    const spec::Time next =
        k + 1 < tick_times.size() ? tick_times[k + 1] : period + tick_times[0];
    future_fixups.push_back(static_cast<int>(program.code.size()));
    program.code.push_back(
        {Opcode::kFuture, static_cast<std::int32_t>(next - now), 0});
    program.code.push_back({Opcode::kHalt, 0, 0});
  }
  // Point each future at the following block (wrapping to block 0).
  for (std::size_t k = 0; k < future_fixups.size(); ++k) {
    const int target = static_cast<int>((k + 1) % program.blocks.size());
    program.code[static_cast<std::size_t>(future_fixups[k])].arg1 =
        program.blocks[static_cast<std::size_t>(target)].second;
  }
  return program;
}

}  // namespace lrt::ecode
