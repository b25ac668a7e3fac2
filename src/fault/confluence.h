#ifndef LAMP_FAULT_CONFLUENCE_H_
#define LAMP_FAULT_CONFLUENCE_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/plan.h"
#include "net/consistency.h"

/// \file
/// The confluence classifier: the consistency sweep (net/consistency.h)
/// extended from "many seeds" to "many seeds x fault classes".
///
/// The CALM theorem (Section 5, F0 = A0 = M) claims monotone programs
/// compute their query on *every* asynchronous run — including runs with
/// duplication and loss-with-retransmission — while non-monotone programs
/// diverge on some run. CheckEventualConsistency samples only the
/// fault-free side; the classifier here samples every fault class the
/// runtime can inject, so the dividing line becomes a regression-tested
/// artifact: monotone example programs must stay correct under every
/// class, and the explorer (fault/explorer.h) hunts the divergence
/// witnesses for the rest.

namespace lamp::fault {

/// The injectable fault classes.
enum class FaultClass : std::uint8_t {
  kNone = 0,        // Plain seeded runs (the CheckEventualConsistency base).
  kDropRetransmit,  // Failed delivery attempts; senders retransmit.
  kDuplicate,       // Duplicate copies of in-flight messages.
  kReorder,         // Adversarial delay: LIFO channels / starved receivers.
  kPartitionHeal,   // Network partition with a later heal point.
  kCrashVolatile,   // Node crashes losing state; channel redelivers.
  kCrashDurable,    // Node crashes keeping state.
};

inline constexpr std::array<FaultClass, 7> kAllFaultClasses = {
    FaultClass::kNone,          FaultClass::kDropRetransmit,
    FaultClass::kDuplicate,     FaultClass::kReorder,
    FaultClass::kPartitionHeal, FaultClass::kCrashVolatile,
    FaultClass::kCrashDurable,
};

std::string_view FaultClassName(FaultClass fault_class);

/// A randomized plan of the given class for an n-node network.
/// Deterministic in (fault_class, num_nodes, rng state).
FaultPlan MakeClassPlan(FaultClass fault_class, std::size_t num_nodes,
                        Rng& rng);

/// One fault class's sweep: the consistency sweep's counters (drops,
/// duplicates, crashes and retransmits included) and, on failure, the
/// plan that broke the first failing run.
struct FaultSweep : ConsistencySweep {
  FaultClass fault_class = FaultClass::kNone;
};

/// Runs \p program under \p fault_class: every distribution x every seed
/// in [0, num_seeds), each with a fresh randomized plan of that class,
/// comparing each run's output to \p expected.
FaultSweep CheckConsistencyUnderFaults(
    TransducerProgram& program,
    const std::vector<std::vector<Instance>>& distributions,
    const Instance& expected, FaultClass fault_class, std::size_t num_seeds,
    const DistributionPolicy* policy = nullptr, bool aware = true,
    const Schema* schema = nullptr);

/// Verdict over every fault class.
struct ConfluenceReport {
  bool confluent = true;  // Correct under every class (incl. fault-free).
  std::vector<FaultSweep> by_class;

  const FaultSweep* FindClass(FaultClass fault_class) const;
};

/// The full classifier: one FaultSweep per entry of kAllFaultClasses.
/// A monotone (F0) program should come back confluent; for a
/// non-monotone one the report pinpoints the first class that broke it.
ConfluenceReport ClassifyConfluence(
    TransducerProgram& program,
    const std::vector<std::vector<Instance>>& distributions,
    const Instance& expected, std::size_t num_seeds,
    const DistributionPolicy* policy = nullptr, bool aware = true,
    const Schema* schema = nullptr);

}  // namespace lamp::fault

#endif  // LAMP_FAULT_CONFLUENCE_H_
