// The reference SRG induction for differential tests: the paper's
// Section-3 rules evaluated by memoized recursion over the model-3-cut
// dataflow. It shares nothing with the production kernel
// (reliability::SrgEvaluator) but the arithmetic primitives — not the
// specification's cached reliability order, not the flat state, not the
// dirty-cone propagation — so agreement is evidence, not tautology.
#ifndef LRT_TESTS_SRG_ORACLE_H_
#define LRT_TESTS_SRG_ORACLE_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "impl/implementation.h"
#include "support/math_util.h"

namespace lrt::test {

/// lambda_t = 1 - prod_{h in I(t)} (1 - hrel'(h)), where k re-executions
/// lift each host to hrel' = 1 - (1 - hrel)^(k+1); hosts ascending.
inline double oracle_task_lambda(const impl::Implementation& impl,
                                 spec::TaskId task) {
  const int attempts = impl.reexecutions(task) + 1;
  std::vector<double> per_host;
  for (const arch::HostId h : impl.hosts_for(task)) {
    const double fail_once = 1.0 - impl.architecture().host(h).reliability;
    per_host.push_back(1.0 - std::pow(fail_once, attempts));
  }
  return parallel_or(per_host);
}

/// SRG of every communicator. Requires a cycle-safe specification: every
/// dataflow cycle passes an independent-model task, which ends the
/// recursion (a cycle reached without one fails the calling test).
inline std::vector<double> oracle_srgs(const impl::Implementation& impl) {
  const spec::Specification& spec = impl.specification();
  const std::size_t n = spec.communicators().size();
  std::vector<double> srg(n, 0.0);
  enum class State : std::uint8_t { kNew, kOpen, kDone };
  std::vector<State> state(n, State::kNew);

  std::function<double(spec::CommId)> eval = [&](spec::CommId c) -> double {
    const auto cs = static_cast<std::size_t>(c);
    if (state[cs] == State::kDone) return srg[cs];
    if (state[cs] == State::kOpen) {
      ADD_FAILURE() << "oracle_srgs: unsafe cycle through '"
                    << spec.communicator(c).name << "'";
      return 0.0;
    }
    state[cs] = State::kOpen;
    double value = 1.0;  // neither written nor read: keeps its init value
    const auto writer = spec.writer_of(c);
    if (!writer.has_value()) {
      if (!spec.readers_of(c).empty()) {
        value = impl.architecture().sensor(impl.sensor_for(c)).reliability;
      }
    } else {
      const spec::Task& task = spec.task(*writer);
      const double lambda = oracle_task_lambda(impl, *writer);
      if (task.model == spec::FailureModel::kIndependent) {
        value = lambda;
      } else {
        std::vector<double> inputs;
        for (const spec::CommId in : spec.input_comm_set(*writer)) {
          inputs.push_back(eval(in));
        }
        value = task.model == spec::FailureModel::kSeries
                    ? lambda * series_and(inputs)
                    : lambda * parallel_or(inputs);
      }
    }
    srg[cs] = value;
    state[cs] = State::kDone;
    return value;
  };
  for (spec::CommId c = 0; c < static_cast<spec::CommId>(n); ++c) eval(c);
  return srg;
}

}  // namespace lrt::test

#endif  // LRT_TESTS_SRG_ORACLE_H_
