#ifndef LAMP_FAULT_EXPLORER_H_
#define LAMP_FAULT_EXPLORER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "net/consistency.h"
#include "obs/json.h"

/// \file
/// Adversarial schedule exploration.
///
/// A seed sweep samples uniform schedules; real divergence often hides in
/// the corners — one channel starved to the end, a partition held until
/// both sides are quiescent, a duplicated barrier message. The explorer
/// runs a battery of named adversarial strategies (plus randomized mixed
/// plans) against the expected output, and when it finds a run whose
/// final output differs it delta-debugs the fault plan down to a minimal
/// counterexample and captures a pair of lamp.trace.v1 recordings — the
/// divergent run and a fault-free reference — for
/// `lamp_obs diff` to render.

namespace lamp::fault {

struct ExplorerOptions {
  std::size_t seeds_per_strategy = 4;  // Scheduler seeds tried per plan.
  std::size_t random_plans = 6;        // Extra randomized mixed plans.
  std::uint64_t random_plan_seed = 0xfau;  // Generator seed for those.
  bool minimize = true;                // Delta-debug the witness plan.
  bool capture_traces = true;          // Record witness + reference traces.
  std::size_t max_reference_seeds = 16;  // Seeds tried for the reference.
};

/// A minimized divergence counterexample.
struct DivergenceWitness {
  std::string strategy;            // Name of the strategy that found it.
  FaultPlan plan;                  // Minimized when options.minimize.
  std::uint64_t seed = 0;          // Scheduler seed of the divergent run.
  std::size_t distribution_index = 0;
  InstanceDiff diff;               // Divergent output vs expected.
  bool has_reference = false;
  std::uint64_t reference_seed = 0;
  obs::JsonValue divergent_trace;  // lamp.trace.v1 of the witness replay.
  obs::JsonValue reference_trace;  // lamp.trace.v1 of a correct clean run.
};

struct ExplorerResult {
  std::size_t strategies_tried = 0;
  std::size_t runs = 0;            // Network runs, minimization included.
  bool divergence_found = false;
  DivergenceWitness witness;       // Valid when divergence_found.
};

/// Replays (plan, seed) on one distribution and reports whether the final
/// output differs from \p expected. The explorer's probe, exposed for
/// regression tests that pin a witness.
bool PlanDiverges(TransducerProgram& program,
                  const std::vector<Instance>& locals,
                  const Instance& expected, const FaultPlan& plan,
                  std::uint64_t seed,
                  const DistributionPolicy* policy = nullptr,
                  bool aware = true);

/// Greedy delta-debugging: repeatedly drops plan events (and finally the
/// delivery discipline) while the run still diverges. The result is
/// 1-minimal: removing any single remaining element restores the
/// expected output. \p runs, when given, accumulates the replay count.
FaultPlan MinimizeWitness(TransducerProgram& program,
                          const std::vector<Instance>& locals,
                          const Instance& expected, FaultPlan plan,
                          std::uint64_t seed,
                          const DistributionPolicy* policy = nullptr,
                          bool aware = true, std::size_t* runs = nullptr);

/// Hunts for a divergent final output across the strategy battery. Stops
/// at the first divergence found (strategies are ordered, so results are
/// deterministic); returns the minimized witness with its trace pair.
ExplorerResult ExploreSchedules(
    TransducerProgram& program,
    const std::vector<std::vector<Instance>>& distributions,
    const Instance& expected, const ExplorerOptions& options = {},
    const DistributionPolicy* policy = nullptr, bool aware = true,
    const Schema* schema = nullptr);

}  // namespace lamp::fault

#endif  // LAMP_FAULT_EXPLORER_H_
