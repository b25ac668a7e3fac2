#include "fault/explorer.h"

#include <limits>
#include <utility>

#include "obs/trace.h"

namespace lamp::fault {

namespace {

/// One named strategy: a plan to try across seeds.
struct Strategy {
  std::string name;
  FaultPlan plan;
};

/// The battery for an n-node network, in hunt order: cheap pure-schedule
/// adversaries first, then fault storms, then randomized mixes.
std::vector<Strategy> StrategyBattery(std::size_t num_nodes,
                                      const ExplorerOptions& options) {
  std::vector<Strategy> battery;
  battery.push_back({"uniform", FaultPlan{}});
  battery.push_back({"newest-first", NewestFirstPlan()});
  for (NodeId node = 0; node < num_nodes; ++node) {
    battery.push_back(
        {"starve-node-" + std::to_string(node), StarvePlan(node)});
  }
  if (num_nodes >= 2) {
    std::vector<NodeId> half;
    for (NodeId node = 0; node < num_nodes / 2 + num_nodes % 2; ++node) {
      half.push_back(node);
    }
    battery.push_back({"partition-until-quiescence-then-heal",
                       PartitionHealPlan(std::move(half), 0,
                                         std::numeric_limits<
                                             std::size_t>::max())});
  }
  battery.push_back({"duplicate-storm", DuplicateStormPlan(0, 12)});
  battery.push_back({"drop-storm", DropStormPlan(0, 12)});
  for (NodeId node = 0; node < num_nodes; ++node) {
    battery.push_back({"crash-volatile-" + std::to_string(node),
                       CrashRestartPlan(node, 2, 8, /*durable=*/false)});
    battery.push_back({"crash-durable-" + std::to_string(node),
                       CrashRestartPlan(node, 2, 8, /*durable=*/true)});
  }
  Rng rng(options.random_plan_seed);
  for (std::size_t i = 0; i < options.random_plans; ++i) {
    battery.push_back({"random-mix-" + std::to_string(i),
                       RandomFaultPlan(num_nodes, rng)});
  }
  return battery;
}

Instance RunPlan(TransducerProgram& program,
                 const std::vector<Instance>& locals, const FaultPlan& plan,
                 std::uint64_t seed, const DistributionPolicy* policy,
                 bool aware) {
  Scheduler scheduler(plan, seed);
  TransducerNetwork network(locals, program, policy, aware);
  return network.RunWith(scheduler).output;
}

obs::JsonValue CaptureTrace(TransducerProgram& program,
                            const std::vector<Instance>& locals,
                            const FaultPlan& plan, std::uint64_t seed,
                            const DistributionPolicy* policy, bool aware) {
  obs::Tracer tracer;
  {
    obs::ScopedTracer install(tracer);
    (void)RunPlan(program, locals, plan, seed, policy, aware);
  }
  return obs::TraceToJson(tracer);
}

}  // namespace

bool PlanDiverges(TransducerProgram& program,
                  const std::vector<Instance>& locals,
                  const Instance& expected, const FaultPlan& plan,
                  std::uint64_t seed, const DistributionPolicy* policy,
                  bool aware) {
  return !(RunPlan(program, locals, plan, seed, policy, aware) == expected);
}

FaultPlan MinimizeWitness(TransducerProgram& program,
                          const std::vector<Instance>& locals,
                          const Instance& expected, FaultPlan plan,
                          std::uint64_t seed,
                          const DistributionPolicy* policy, bool aware,
                          std::size_t* runs) {
  auto diverges = [&](const FaultPlan& candidate) {
    if (runs != nullptr) ++*runs;
    return PlanDiverges(program, locals, expected, candidate, seed, policy,
                        aware);
  };

  // Greedy event removal to a fixed point. Removing from the back first
  // keeps earlier steps' semantics stable while the list shrinks.
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = plan.events.size(); i-- > 0;) {
      FaultPlan candidate = plan;
      candidate.events.erase(candidate.events.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (diverges(candidate)) {
        plan = std::move(candidate);
        shrunk = true;
      }
    }
  }
  // Then try to simplify the discipline back to the uniform base.
  if (plan.discipline != DeliveryDiscipline::kUniform) {
    FaultPlan candidate = plan;
    candidate.discipline = DeliveryDiscipline::kUniform;
    candidate.starve_target = 0;
    if (diverges(candidate)) plan = std::move(candidate);
  }
  return plan;
}

ExplorerResult ExploreSchedules(
    TransducerProgram& program,
    const std::vector<std::vector<Instance>>& distributions,
    const Instance& expected, const ExplorerOptions& options,
    const DistributionPolicy* policy, bool aware, const Schema* schema) {
  ExplorerResult result;

  for (std::size_t d = 0; d < distributions.size(); ++d) {
    const std::vector<Instance>& locals = distributions[d];
    const std::vector<Strategy> battery =
        StrategyBattery(locals.size(), options);
    if (d == 0) result.strategies_tried = battery.size();

    for (const Strategy& strategy : battery) {
      for (std::uint64_t seed = 0; seed < options.seeds_per_strategy;
           ++seed) {
        ++result.runs;
        const Instance actual =
            RunPlan(program, locals, strategy.plan, seed, policy, aware);
        if (actual == expected) continue;

        // Divergence: build the witness.
        result.divergence_found = true;
        DivergenceWitness& witness = result.witness;
        witness.strategy = strategy.name;
        witness.seed = seed;
        witness.distribution_index = d;
        witness.plan = strategy.plan;
        if (options.minimize) {
          witness.plan =
              MinimizeWitness(program, locals, expected, witness.plan, seed,
                              policy, aware, &result.runs);
        }
        witness.diff = DiffInstances(
            RunPlan(program, locals, witness.plan, seed, policy, aware),
            expected, schema);
        ++result.runs;

        if (options.capture_traces) {
          witness.divergent_trace = CaptureTrace(
              program, locals, witness.plan, seed, policy, aware);
          ++result.runs;
          // Reference: the first fault-free seed that computes Q(I).
          const FaultPlan clean;
          for (std::uint64_t ref = 0; ref < options.max_reference_seeds;
               ++ref) {
            ++result.runs;
            if (RunPlan(program, locals, clean, ref, policy, aware) ==
                expected) {
              witness.has_reference = true;
              witness.reference_seed = ref;
              witness.reference_trace = CaptureTrace(
                  program, locals, clean, ref, policy, aware);
              ++result.runs;
              break;
            }
          }
        }
        return result;
      }
    }
  }
  return result;
}

}  // namespace lamp::fault
