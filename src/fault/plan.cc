#include "fault/plan.h"

namespace lamp::fault {

FaultPlan DuplicateStormPlan(std::size_t first_step, std::size_t count,
                             std::size_t stride) {
  FaultPlan plan;
  for (std::size_t i = 0; i < count; ++i) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kDuplicateNext;
    e.step = first_step + i * stride;
    plan.events.push_back(e);
  }
  plan.Normalize();
  return plan;
}

FaultPlan DropStormPlan(std::size_t first_step, std::size_t count,
                        std::size_t stride) {
  FaultPlan plan;
  for (std::size_t i = 0; i < count; ++i) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kDropNext;
    e.step = first_step + i * stride;
    plan.events.push_back(e);
  }
  plan.Normalize();
  return plan;
}

FaultPlan CrashRestartPlan(NodeId node, std::size_t crash_step,
                           std::size_t restart_step, bool durable) {
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultEvent::Kind::kCrash;
  crash.step = crash_step;
  crash.node = node;
  crash.durable = durable;
  FaultEvent restart;
  restart.kind = FaultEvent::Kind::kRestart;
  restart.step = restart_step;
  restart.node = node;
  plan.events = {crash, restart};
  plan.Normalize();
  return plan;
}

FaultPlan PartitionHealPlan(std::vector<NodeId> group, std::size_t at_step,
                            std::size_t heal_step) {
  FaultPlan plan;
  FaultEvent cut;
  cut.kind = FaultEvent::Kind::kPartition;
  cut.step = at_step;
  cut.group = std::move(group);
  FaultEvent heal;
  heal.kind = FaultEvent::Kind::kHeal;
  heal.step = heal_step;
  plan.events = {std::move(cut), heal};
  plan.Normalize();
  return plan;
}

FaultPlan StarvePlan(NodeId target) {
  FaultPlan plan;
  plan.discipline = DeliveryDiscipline::kStarve;
  plan.starve_target = target;
  return plan;
}

FaultPlan NewestFirstPlan() {
  FaultPlan plan;
  plan.discipline = DeliveryDiscipline::kNewestFirst;
  return plan;
}

FaultPlan RandomFaultPlan(std::size_t num_nodes, Rng& rng) {
  FaultPlan plan;
  switch (rng.Uniform(4)) {
    case 0:
      plan.discipline = DeliveryDiscipline::kOldestFirst;
      break;
    case 1:
      plan.discipline = DeliveryDiscipline::kNewestFirst;
      break;
    case 2:
      plan.discipline = DeliveryDiscipline::kStarve;
      plan.starve_target = static_cast<NodeId>(rng.Uniform(num_nodes));
      break;
    default:
      break;  // Uniform.
  }

  const std::size_t drops = rng.Uniform(4);
  for (std::size_t i = 0; i < drops; ++i) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kDropNext;
    e.step = rng.Uniform(24);
    plan.events.push_back(e);
  }
  const std::size_t dups = rng.Uniform(4);
  for (std::size_t i = 0; i < dups; ++i) {
    FaultEvent e;
    e.kind = FaultEvent::Kind::kDuplicateNext;
    e.step = rng.Uniform(24);
    plan.events.push_back(e);
  }
  if (num_nodes > 1 && rng.Bernoulli(0.5)) {
    const NodeId victim = static_cast<NodeId>(rng.Uniform(num_nodes));
    const std::size_t at = rng.Uniform(12);
    const FaultPlan crash = CrashRestartPlan(victim, at,
                                             at + 2 + rng.Uniform(10),
                                             rng.Bernoulli(0.5));
    plan.events.insert(plan.events.end(), crash.events.begin(),
                       crash.events.end());
  }
  if (num_nodes > 1 && rng.Bernoulli(0.4)) {
    std::vector<NodeId> group;
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (rng.Bernoulli(0.5)) group.push_back(n);
    }
    if (!group.empty() && group.size() < num_nodes) {
      const std::size_t at = rng.Uniform(8);
      const FaultPlan cut =
          PartitionHealPlan(std::move(group), at, at + 4 + rng.Uniform(24));
      plan.events.insert(plan.events.end(), cut.events.begin(),
                         cut.events.end());
    }
  }
  plan.Normalize();
  return plan;
}

}  // namespace lamp::fault
