#include "fault/confluence.h"

#include <limits>

#include "common/hash.h"

namespace lamp::fault {

std::string_view FaultClassName(FaultClass fault_class) {
  switch (fault_class) {
    case FaultClass::kNone:
      return "none";
    case FaultClass::kDropRetransmit:
      return "drop+retransmit";
    case FaultClass::kDuplicate:
      return "duplicate";
    case FaultClass::kReorder:
      return "reorder";
    case FaultClass::kPartitionHeal:
      return "partition+heal";
    case FaultClass::kCrashVolatile:
      return "crash/restart (volatile)";
    case FaultClass::kCrashDurable:
      return "crash/restart (durable)";
  }
  return "unknown";
}

FaultPlan MakeClassPlan(FaultClass fault_class, std::size_t num_nodes,
                        Rng& rng) {
  switch (fault_class) {
    case FaultClass::kNone:
      return FaultPlan{};
    case FaultClass::kDropRetransmit:
      return DropStormPlan(rng.Uniform(4), 3 + rng.Uniform(6),
                           1 + rng.Uniform(3));
    case FaultClass::kDuplicate:
      return DuplicateStormPlan(rng.Uniform(4), 3 + rng.Uniform(6),
                                1 + rng.Uniform(3));
    case FaultClass::kReorder: {
      if (num_nodes > 1 && rng.Bernoulli(0.5)) {
        return StarvePlan(static_cast<NodeId>(rng.Uniform(num_nodes)));
      }
      return NewestFirstPlan();
    }
    case FaultClass::kPartitionHeal: {
      if (num_nodes < 2) return FaultPlan{};
      std::vector<NodeId> group;
      for (NodeId n = 0; n < num_nodes; ++n) {
        if (rng.Bernoulli(0.5)) group.push_back(n);
      }
      if (group.empty()) group.push_back(0);
      if (group.size() == num_nodes) group.pop_back();
      const std::size_t at = rng.Uniform(4);
      // Half the plans heal at a concrete step; the rest hold the cut
      // until both sides are quiescent (the scheduler forces the heal).
      const std::size_t heal =
          rng.Bernoulli(0.5) ? at + 4 + rng.Uniform(24)
                             : std::numeric_limits<std::size_t>::max();
      return PartitionHealPlan(std::move(group), at, heal);
    }
    case FaultClass::kCrashVolatile:
    case FaultClass::kCrashDurable: {
      const bool durable = fault_class == FaultClass::kCrashDurable;
      const NodeId victim = static_cast<NodeId>(rng.Uniform(num_nodes));
      const std::size_t at = rng.Uniform(8);
      FaultPlan plan =
          CrashRestartPlan(victim, at, at + 2 + rng.Uniform(12), durable);
      if (num_nodes > 1 && rng.Bernoulli(0.3)) {
        // Occasionally a second overlapping outage.
        const NodeId other =
            static_cast<NodeId>((victim + 1 + rng.Uniform(num_nodes - 1)) %
                                num_nodes);
        const std::size_t at2 = at + rng.Uniform(8);
        const FaultPlan second =
            CrashRestartPlan(other, at2, at2 + 2 + rng.Uniform(12), durable);
        plan.events.insert(plan.events.end(), second.events.begin(),
                           second.events.end());
        plan.Normalize();
      }
      return plan;
    }
  }
  return FaultPlan{};
}

FaultSweep CheckConsistencyUnderFaults(
    TransducerProgram& program,
    const std::vector<std::vector<Instance>>& distributions,
    const Instance& expected, FaultClass fault_class, std::size_t num_seeds,
    const DistributionPolicy* policy, bool aware, const Schema* schema) {
  // A fresh plan per run, deterministic in (class, distribution, seed) so
  // failures replay exactly.
  const SweepPlan plan_for = [&](std::size_t d, std::uint64_t seed) {
    Rng plan_rng(HashCombine(
        HashMix(static_cast<std::uint64_t>(fault_class) + 1),
        HashCombine(d, seed)));
    return MakeClassPlan(fault_class, distributions[d].size(), plan_rng);
  };
  return {SweepRuns(program, distributions, expected, num_seeds, plan_for,
                    policy, aware, schema),
          fault_class};
}

const FaultSweep* ConfluenceReport::FindClass(FaultClass fault_class) const {
  for (const FaultSweep& sweep : by_class) {
    if (sweep.fault_class == fault_class) return &sweep;
  }
  return nullptr;
}

ConfluenceReport ClassifyConfluence(
    TransducerProgram& program,
    const std::vector<std::vector<Instance>>& distributions,
    const Instance& expected, std::size_t num_seeds,
    const DistributionPolicy* policy, bool aware, const Schema* schema) {
  ConfluenceReport report;
  for (FaultClass fault_class : kAllFaultClasses) {
    FaultSweep sweep =
        CheckConsistencyUnderFaults(program, distributions, expected,
                                    fault_class, num_seeds, policy, aware,
                                    schema);
    if (!sweep.all_runs_correct) report.confluent = false;
    report.by_class.push_back(std::move(sweep));
  }
  return report;
}

}  // namespace lamp::fault
