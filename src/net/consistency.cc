#include "net/consistency.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace lamp {

namespace {

/// Appends " <sign>R(a,b)" (no leading space when \p out is empty) for the
/// first \p max_listed rows of \p rows, in (relation, insertion) order;
/// returns how many it listed.
std::size_t ListRows(const Instance& rows, char sign, const Schema* schema,
                     std::size_t max_listed, std::string& out) {
  std::size_t listed = 0;
  for (RelationId rel = 0; rel < rows.NumRelationIds(); ++rel) {
    const RowsView view = rows.RowsOf(rel);
    for (std::size_t i = 0; i < view.num_rows && listed < max_listed;
         ++i, ++listed) {
      if (!out.empty()) out.push_back(' ');
      out.push_back(sign);
      if (schema != nullptr && rel < schema->NumRelations()) {
        out.append(schema->NameOf(rel));
      } else {
        out.push_back('R');
        out.append(std::to_string(rel));
      }
      out.push_back('(');
      for (std::size_t j = 0; j < view.arity; ++j) {
        if (j > 0) out.push_back(',');
        out.append(std::to_string(view.Row(i)[j].v));
      }
      out.push_back(')');
    }
  }
  return listed;
}

}  // namespace

InstanceDiff DiffInstances(const Instance& actual, const Instance& expected,
                           const Schema* schema, std::size_t max_listed) {
  InstanceDiff diff;
  const Instance unexpected = actual.Minus(expected);
  const Instance missing = expected.Minus(actual);
  diff.unexpected = unexpected.Size();
  diff.missing = missing.Size();
  const std::size_t listed =
      ListRows(unexpected, '+', schema, max_listed, diff.summary) +
      ListRows(missing, '-', schema, max_listed, diff.summary);
  const std::size_t elided = diff.unexpected + diff.missing - listed;
  if (elided > 0) {
    diff.summary += " (+";
    diff.summary += std::to_string(elided);
    diff.summary += " more)";
  }
  return diff;
}

ConsistencySweep SweepRuns(
    TransducerProgram& program,
    const std::vector<std::vector<Instance>>& distributions,
    const Instance& expected, std::size_t num_seeds,
    const SweepPlan& plan_for, const DistributionPolicy* policy, bool aware,
    const Schema* schema) {
  ConsistencySweep sweep;
  sweep.min_facts_transferred = std::numeric_limits<std::size_t>::max();

  for (std::size_t d = 0; d < distributions.size(); ++d) {
    const std::vector<Instance>& locals = distributions[d];
    for (std::uint64_t seed = 0; seed < num_seeds; ++seed) {
      FaultPlan plan = plan_for(d, seed);
      Scheduler scheduler(plan, seed);
      TransducerNetwork network(locals, program, policy, aware);
      const NetworkRunResult result = network.RunWith(scheduler);
      ++sweep.runs;
      sweep.total_transitions += result.transitions();
      sweep.total_drops += result.metrics.CounterValue(obs::kNetFaultDrops);
      sweep.total_duplicates +=
          result.metrics.CounterValue(obs::kNetFaultDuplicates);
      sweep.total_crashes +=
          result.metrics.CounterValue(obs::kNetFaultCrashes);
      sweep.total_retransmits +=
          result.metrics.CounterValue(obs::kNetFaultRetransmits);
      if (result.output == expected) {
        ++sweep.correct_runs;
      } else {
        sweep.all_runs_correct = false;
        if (!sweep.first_failure.has_value()) {
          SweepFailure failure;
          failure.seed = seed;
          failure.distribution_index = d;
          failure.plan = std::move(plan);
          failure.diff = DiffInstances(result.output, expected, schema);
          sweep.first_failure = std::move(failure);
        }
      }
      sweep.min_facts_transferred =
          std::min(sweep.min_facts_transferred, result.facts_transferred());
      sweep.max_facts_transferred =
          std::max(sweep.max_facts_transferred, result.facts_transferred());
      sweep.total_facts_transferred += result.facts_transferred();
    }
  }
  if (sweep.runs == 0) sweep.min_facts_transferred = 0;
  return sweep;
}

ConsistencySweep CheckEventualConsistency(
    TransducerProgram& program,
    const std::vector<std::vector<Instance>>& distributions,
    const Instance& expected, std::size_t num_seeds,
    const DistributionPolicy* policy, bool aware, const Schema* schema) {
  return SweepRuns(
      program, distributions, expected, num_seeds,
      [](std::size_t, std::uint64_t) { return FaultPlan{}; }, policy, aware,
      schema);
}

bool ComputesWithoutCommunication(TransducerProgram& program,
                                  const std::vector<Instance>& ideal_locals,
                                  const Instance& expected,
                                  const DistributionPolicy* policy,
                                  bool aware) {
  TransducerNetwork network(ideal_locals, program, policy, aware);
  return network.RunWithoutDelivery().output == expected;
}

}  // namespace lamp
