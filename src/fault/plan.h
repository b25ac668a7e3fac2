#ifndef LAMP_FAULT_PLAN_H_
#define LAMP_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/scheduler.h"

/// \file
/// Fault plan generators for transducer-network runs.
///
/// A FaultPlan (net/scheduler.h) describes one adversarial run as data;
/// the functions here build the plans the confluence classifier and the
/// schedule explorer try. All are deterministic in their arguments.

namespace lamp::fault {

/// `count` duplications, the first at `first_step`, `stride` steps apart.
FaultPlan DuplicateStormPlan(std::size_t first_step, std::size_t count,
                             std::size_t stride = 1);

/// `count` failed delivery attempts (each retransmitted), spaced likewise.
FaultPlan DropStormPlan(std::size_t first_step, std::size_t count,
                        std::size_t stride = 1);

/// Crash `node` at `crash_step`, restart it at `restart_step`.
FaultPlan CrashRestartPlan(NodeId node, std::size_t crash_step,
                           std::size_t restart_step, bool durable);

/// Isolate `group` at `at_step`; heal at `heal_step`. Pass a huge
/// heal_step to heal only once both sides are quiescent (the scheduler
/// forces the heal when nothing else can be delivered).
FaultPlan PartitionHealPlan(std::vector<NodeId> group, std::size_t at_step,
                            std::size_t heal_step);

/// Starve one receiver: deliver to `target` only when forced.
FaultPlan StarvePlan(NodeId target);

/// LIFO delivery within every channel (adversarial bounded delay).
FaultPlan NewestFirstPlan();

/// A random mixed plan over an n-node network: a handful of drops,
/// duplications, a crash/restart pair, and sometimes a partition window.
FaultPlan RandomFaultPlan(std::size_t num_nodes, Rng& rng);

}  // namespace lamp::fault

#endif  // LAMP_FAULT_PLAN_H_
