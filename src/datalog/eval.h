#ifndef LAMP_DATALOG_EVAL_H_
#define LAMP_DATALOG_EVAL_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "datalog/program.h"
#include "obs/metrics.h"
#include "relational/instance.h"

/// \file
/// Stratified Datalog evaluation.
///
/// Strata are evaluated bottom-up; within a stratum the engine runs
/// *semi-naive* iteration: each round, every occurrence of a
/// same-stratum recursive predicate is in turn restricted to the previous
/// round's delta, so no derivation is recomputed. Negated atoms refer to
/// lower strata (or EDB) and are therefore fully known when used —
/// the standard stratified semantics.
///
/// The distinguished relation name "ADom" (arity 1), if used by the
/// program, is automatically populated with the active domain of the EDB
/// (as in the paper's Example 5.13).

namespace lamp {

/// Evaluation statistics (for the D1 benchmark and the audit layer).
struct DatalogStats {
  std::size_t iterations = 0;       // Total semi-naive rounds.
  std::size_t facts_derived = 0;    // IDB facts (excluding EDB).
  std::size_t rows_scanned = 0;     // Rows touched by CQ evaluation.
  std::size_t delta_index_hits = 0;  // Delta rules selected (nonempty delta).

  /// Exports as datalog.iterations / datalog.facts_derived /
  /// datalog.delta_index_hits / relational.rows_scanned counters
  /// (accumulating into whatever the registry already holds).
  void ToMetrics(obs::MetricsRegistry& registry) const;
};

/// Evaluates \p program on \p edb and returns EDB + all derived IDB facts.
/// \p schema is extended with synthetic delta relations (names starting
/// with "__"). Aborts if the program does not stratify; use
/// wellfounded.h for programs with negative recursion.
///
/// When \p metrics is non-null the run additionally records the
/// datalog.* schema of obs/metrics.h, including the per-iteration
/// datalog.delta_size histogram; with a tracer installed (obs/trace.h)
/// every iteration emits a kDatalogIteration event carrying the delta
/// cardinality.
Instance EvaluateProgram(Schema& schema, const DatalogProgram& program,
                         const Instance& edb, DatalogStats* stats = nullptr,
                         obs::MetricsRegistry* metrics = nullptr);

/// Naive (recompute-everything) fixpoint — the ablation baseline for the
/// semi-naive engine. Same semantics, more work per iteration.
Instance EvaluateProgramNaive(Schema& schema, const DatalogProgram& program,
                              const Instance& edb,
                              DatalogStats* stats = nullptr,
                              obs::MetricsRegistry* metrics = nullptr);

/// Insertion-only continuation of a negation-free program's fixpoint.
///
/// A state closed under the program (an EvaluateProgram result, or the
/// state after an earlier Continue) stays closed when facts are added, up
/// to what those facts derive. Continue runs the semi-naive delta loop
/// seeded with only the rows inserted since the state was closed, in place
/// over the state, so the state's join indexes stay warm across calls
/// instead of being rebuilt from a copy. Instances only append rows, so
/// "inserted since" is a row count per relation (Marks).
///
/// Every body relation gets one delta relation ("__cont_<name>"),
/// registered in the schema once, at construction. Strata run bottom-up
/// as in EvaluateProgram: round 0 of a stratum restricts each body atom in
/// turn to all rows of its relation that are new since the marks
/// (inserted, or derived by a lower stratum); later rounds restrict the
/// stratum's own heads to what the previous round appended. The delta
/// relations are empty again when Continue returns.
///
/// Rounds emit kDatalogIteration and count into DatalogStats like
/// EvaluateProgram's. The object keeps no per-state data, so one instance
/// serves any number of states.
///
/// Refuses (aborts on) programs with negation, whose conclusions new facts
/// may retract, and schemas with the "ADom" relation, which
/// EvaluateProgram re-populates from the whole instance.
class FixpointContinuation {
 public:
  FixpointContinuation(Schema& schema, const DatalogProgram& program);

  /// Row count per relation, indexed by RelationId (relations past the end
  /// count as empty): the rows of r at or past marks[r] came later.
  using Marks = std::vector<std::size_t>;
  static Marks Mark(const Instance& state);

  /// \p state was closed under the program when \p closed was taken, and
  /// has only had facts inserted since. Derives everything those facts
  /// lead to and appends it to the state, which then equals EvaluateProgram
  /// over its own facts. The rows past \p closed are afterwards exactly the
  /// facts new since the mark: the inserted ones, then the derived ones.
  void Continue(Instance& state, const Marks& closed,
                DatalogStats* stats = nullptr,
                obs::MetricsRegistry* metrics = nullptr) const;

 private:
  /// A rule with one body atom moved onto the delta of its relation.
  struct DeltaRule {
    ConjunctiveQuery query;
    RelationId delta_source;  // The (original) relation of that atom.
  };
  struct Stratum {
    std::vector<RelationId> heads;    // Sorted, deduplicated.
    std::vector<RelationId> sources;  // Body relations; sorted, deduped.
    std::vector<DeltaRule> rules;     // Original rule and atom order.
  };

  std::vector<Stratum> strata_;
  std::vector<RelationId> delta_of_;  // Relation -> its delta relation.
};

/// Name of the built-in active-domain predicate.
inline constexpr std::string_view kADomRelationName = "ADom";

}  // namespace lamp

#endif  // LAMP_DATALOG_EVAL_H_
