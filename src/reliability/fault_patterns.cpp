#include "reliability/fault_patterns.h"

#include <algorithm>

namespace lrt::reliability {
namespace {

using arch::HostId;
using arch::SensorId;
using spec::CommId;
using spec::TaskId;

/// Evaluates liveness of every communicator under a pattern, in the
/// reliability (model-3-cut topological) order.
std::vector<bool> liveness(const impl::Implementation& impl,
                           const std::vector<CommId>& order,
                           const std::vector<bool>& host_failed,
                           const std::vector<bool>& sensor_failed) {
  const spec::Specification& spec = impl.specification();
  std::vector<bool> live(spec.communicators().size(), true);
  for (const CommId c : order) {
    const auto writer = spec.writer_of(c);
    if (!writer.has_value()) {
      if (spec.is_input_communicator(c) && !spec.readers_of(c).empty()) {
        live[static_cast<std::size_t>(c)] =
            !sensor_failed[static_cast<std::size_t>(impl.sensor_for(c))];
      }
      continue;  // unused communicator: init persists, live
    }
    const TaskId t = *writer;
    bool host_alive = false;
    for (const HostId h : impl.hosts_for(t)) {
      if (!host_failed[static_cast<std::size_t>(h)]) {
        host_alive = true;
        break;
      }
    }
    if (!host_alive) {
      live[static_cast<std::size_t>(c)] = false;
      continue;
    }
    const spec::Task& task = spec.task(t);
    bool inputs_ok = true;
    switch (task.model) {
      case spec::FailureModel::kSeries: {
        for (const CommId in : spec.input_comm_set(t)) {
          inputs_ok = inputs_ok && live[static_cast<std::size_t>(in)];
        }
        break;
      }
      case spec::FailureModel::kParallel: {
        inputs_ok = false;
        for (const CommId in : spec.input_comm_set(t)) {
          inputs_ok = inputs_ok || live[static_cast<std::size_t>(in)];
        }
        break;
      }
      case spec::FailureModel::kIndependent:
        inputs_ok = true;
        break;
    }
    live[static_cast<std::size_t>(c)] = inputs_ok;
  }
  return live;
}

/// Visits every component subset of size exactly `k` (components indexed
/// 0..n-1); `visit` returns false to stop the enumeration.
template <typename Visit>
bool for_each_subset(int n, int k, const Visit& visit) {
  std::vector<int> indices(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) indices[static_cast<std::size_t>(i)] = i;
  if (k == 0) return visit(indices);
  while (true) {
    if (!visit(indices)) return false;
    // Next combination.
    int i = k - 1;
    while (i >= 0 &&
           indices[static_cast<std::size_t>(i)] == n - k + i) {
      --i;
    }
    if (i < 0) return true;
    ++indices[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      indices[static_cast<std::size_t>(j)] =
          indices[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
}

}  // namespace

std::string FaultPattern::to_string(const arch::Architecture& arch) const {
  std::string out = "{";
  bool first = true;
  for (const HostId h : hosts) {
    if (!first) out += ", ";
    out += arch.host(h).name;
    first = false;
  }
  for (const SensorId s : sensors) {
    if (!first) out += ", ";
    out += arch.sensor(s).name;
    first = false;
  }
  return out + "}";
}

Result<bool> live_under_pattern(const impl::Implementation& impl,
                                spec::CommId comm,
                                const FaultPattern& pattern) {
  const spec::Specification& spec = impl.specification();
  if (comm < 0 ||
      comm >= static_cast<CommId>(spec.communicators().size())) {
    return OutOfRangeError("live_under_pattern: communicator out of range");
  }
  LRT_RETURN_IF_ERROR(spec.require_cycle_safe("fault-pattern analysis"));
  const std::vector<CommId>& order = spec.reliability_order();
  std::vector<bool> host_failed(impl.architecture().hosts().size(), false);
  std::vector<bool> sensor_failed(impl.architecture().sensors().size(),
                                  false);
  for (const HostId h : pattern.hosts) {
    if (h < 0 || h >= static_cast<HostId>(host_failed.size())) {
      return OutOfRangeError("live_under_pattern: host out of range");
    }
    host_failed[static_cast<std::size_t>(h)] = true;
  }
  for (const SensorId s : pattern.sensors) {
    if (s < 0 || s >= static_cast<SensorId>(sensor_failed.size())) {
      return OutOfRangeError("live_under_pattern: sensor out of range");
    }
    sensor_failed[static_cast<std::size_t>(s)] = true;
  }
  return static_cast<bool>(liveness(
      impl, order, host_failed, sensor_failed)[static_cast<std::size_t>(comm)]);
}

Result<FaultPatternReport> analyze_fault_patterns(
    const impl::Implementation& impl, int max_failures) {
  if (max_failures < 0) {
    return InvalidArgumentError("max_failures must be >= 0");
  }
  const spec::Specification& spec = impl.specification();
  const arch::Architecture& arch = impl.architecture();
  LRT_RETURN_IF_ERROR(spec.require_cycle_safe("fault-pattern analysis"));
  const std::vector<CommId>& order = spec.reliability_order();

  // Components: hosts first, then the sensors actually bound.
  const int num_hosts = static_cast<int>(arch.hosts().size());
  std::vector<SensorId> bound_sensors;
  for (CommId c = 0; c < static_cast<CommId>(spec.communicators().size());
       ++c) {
    if (spec.is_input_communicator(c) && !spec.readers_of(c).empty()) {
      const SensorId s = impl.sensor_for(c);
      if (std::find(bound_sensors.begin(), bound_sensors.end(), s) ==
          bound_sensors.end()) {
        bound_sensors.push_back(s);
      }
    }
  }
  const int num_components = num_hosts + static_cast<int>(bound_sensors.size());

  FaultPatternReport report;
  report.max_failures = max_failures;
  const auto num_comms = static_cast<CommId>(spec.communicators().size());
  std::vector<int> degree(static_cast<std::size_t>(num_comms), max_failures);
  std::vector<FaultPattern> cuts(static_cast<std::size_t>(num_comms));
  std::vector<bool> killed(static_cast<std::size_t>(num_comms), false);

  std::vector<bool> host_failed(static_cast<std::size_t>(num_hosts), false);
  std::vector<bool> sensor_failed(arch.sensors().size(), false);

  for (int k = 1; k <= max_failures; ++k) {
    for_each_subset(num_components, k, [&](const std::vector<int>& subset) {
      ++report.patterns_checked;
      FaultPattern pattern;
      std::fill(host_failed.begin(), host_failed.end(), false);
      std::fill(sensor_failed.begin(), sensor_failed.end(), false);
      for (const int component : subset) {
        if (component < num_hosts) {
          host_failed[static_cast<std::size_t>(component)] = true;
          pattern.hosts.push_back(component);
        } else {
          const SensorId s =
              bound_sensors[static_cast<std::size_t>(component - num_hosts)];
          sensor_failed[static_cast<std::size_t>(s)] = true;
          pattern.sensors.push_back(s);
        }
      }
      const std::vector<bool> live =
          liveness(impl, order, host_failed, sensor_failed);
      for (CommId c = 0; c < num_comms; ++c) {
        const auto cs = static_cast<std::size_t>(c);
        if (!killed[cs] && !live[cs]) {
          killed[cs] = true;
          degree[cs] = k - 1;
          cuts[cs] = pattern;
        }
      }
      return true;
    });
  }

  for (CommId c = 0; c < num_comms; ++c) {
    PatternVerdict verdict;
    verdict.comm = c;
    verdict.name = spec.communicator(c).name;
    verdict.tolerance_degree = degree[static_cast<std::size_t>(c)];
    verdict.minimal_cut = cuts[static_cast<std::size_t>(c)];
    report.verdicts.push_back(std::move(verdict));
  }
  return report;
}

std::string FaultPatternReport::summary(const arch::Architecture& arch) const {
  std::string out = "fault-pattern analysis (bound " +
                    std::to_string(max_failures) + " failures, " +
                    std::to_string(patterns_checked) + " patterns)\n";
  for (const PatternVerdict& verdict : verdicts) {
    out += "  " + verdict.name + ": tolerates " +
           std::to_string(verdict.tolerance_degree) +
           (verdict.tolerance_degree == max_failures ? "+" : "") +
           " failure(s)";
    if (verdict.minimal_cut.size() > 0) {
      out += ", killed by " + verdict.minimal_cut.to_string(arch);
    }
    out += "\n";
  }
  return out;
}

}  // namespace lrt::reliability
