#ifndef LAMP_NET_CONSISTENCY_H_
#define LAMP_NET_CONSISTENCY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/network.h"

/// \file
/// Eventual-consistency and coordination-freeness probes (Section 5.1).
///
/// A program computes a query Q when *every* run outputs Q(I), for every
/// network size and horizontal distribution. That is a universally
/// quantified statement; the checker samples it: many scheduler seeds x
/// many distributions, each run compared against the expected output.
/// The coordination-freeness probe implements the definition directly:
/// there must be a distribution (the "ideal" one) on which the program
/// computes Q without reading any message.

namespace lamp {

/// Symmetric difference of two instances, summarised for humans: how many
/// facts are missing/unexpected and a capped listing of examples.
struct InstanceDiff {
  std::size_t missing = 0;     // In expected, absent from actual.
  std::size_t unexpected = 0;  // In actual, absent from expected.
  std::string summary;         // "+R3(1,2) -R3(4,5) ..." (capped).

  bool Empty() const { return missing == 0 && unexpected == 0; }
};

/// Diffs \p actual against \p expected. '+' marks unexpected facts, '-'
/// missing ones; at most \p max_listed of each are rendered. \p schema
/// (optional) supplies relation names; without it relations print as
/// "R<id>".
InstanceDiff DiffInstances(const Instance& actual, const Instance& expected,
                           const Schema* schema = nullptr,
                           std::size_t max_listed = 4);

/// Context of the first failing run of a sweep, so a red sweep is
/// reproducible and debuggable instead of a bare boolean.
struct SweepFailure {
  std::uint64_t seed = 0;              // Scheduler seed of the failing run.
  std::size_t distribution_index = 0;  // Index into the sweep's input.
  FaultPlan plan;                      // The run's plan (empty: fault-free).
  InstanceDiff diff;                   // Actual vs expected output.
};

/// Aggregate of a consistency sweep.
struct ConsistencySweep {
  bool all_runs_correct = true;
  std::size_t runs = 0;
  std::size_t correct_runs = 0;
  std::size_t min_facts_transferred = 0;
  std::size_t max_facts_transferred = 0;
  std::uint64_t total_facts_transferred = 0;
  std::uint64_t total_transitions = 0;
  std::uint64_t total_drops = 0;
  std::uint64_t total_duplicates = 0;
  std::uint64_t total_crashes = 0;
  std::uint64_t total_retransmits = 0;
  /// Set on the first incorrect run (subsequent failures are counted in
  /// all_runs_correct only).
  std::optional<SweepFailure> first_failure;

  double MeanTransitions() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(total_transitions) /
                           static_cast<double>(runs);
  }
  double MeanFactsTransferred() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(total_facts_transferred) /
                           static_cast<double>(runs);
  }
};

/// The plan of one sweep run, given its distribution index and seed.
using SweepPlan =
    std::function<FaultPlan(std::size_t distribution_index,
                            std::uint64_t seed)>;

/// Runs \p program on every given distribution with every seed in
/// [0, num_seeds), each run under \p plan_for's plan, and compares each
/// run's output to \p expected. \p schema, when given, is only used to
/// render relation names in the first-failure diff.
ConsistencySweep SweepRuns(
    TransducerProgram& program,
    const std::vector<std::vector<Instance>>& distributions,
    const Instance& expected, std::size_t num_seeds,
    const SweepPlan& plan_for, const DistributionPolicy* policy = nullptr,
    bool aware = true, const Schema* schema = nullptr);

/// SweepRuns with no fault: every run is the plain seeded Run(seed).
ConsistencySweep CheckEventualConsistency(
    TransducerProgram& program,
    const std::vector<std::vector<Instance>>& distributions,
    const Instance& expected, std::size_t num_seeds,
    const DistributionPolicy* policy = nullptr, bool aware = true,
    const Schema* schema = nullptr);

/// The Section 5.1 probe: true when the heartbeat-only run on
/// \p ideal_locals already outputs \p expected (no message ever read).
bool ComputesWithoutCommunication(TransducerProgram& program,
                                  const std::vector<Instance>& ideal_locals,
                                  const Instance& expected,
                                  const DistributionPolicy* policy = nullptr,
                                  bool aware = true);

}  // namespace lamp

#endif  // LAMP_NET_CONSISTENCY_H_
