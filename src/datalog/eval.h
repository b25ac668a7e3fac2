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
/// One semi-naive engine (FixpointContinuation) serves both a whole-program
/// evaluation and a transducer node's per-delivery continuation. Strata
/// are evaluated bottom-up; within a stratum each round evaluates every
/// rule once per body atom whose relation grew in the previous round: that
/// atom reads the new rows, the atoms before it only the older rows and
/// the atoms after it every row, so each derivation is enumerated once.
/// Instances only append rows, so the old and the new rows are row ranges
/// of the state (cq RowRange), not copies. Negated atoms refer to lower
/// strata (or EDB) and are therefore fully known when used — the standard
/// stratified semantics. EvaluateProgramNaive is the recompute-everything
/// reference.
///
/// The distinguished relation name "ADom" (arity 1), if the schema has it,
/// is automatically populated with the active domain of the EDB (as in the
/// paper's Example 5.13): the values of the relations that head no rule.

namespace lamp {

/// Evaluation statistics (for the D1 benchmark and the audit layer).
struct DatalogStats {
  std::size_t iterations = 0;       // Total semi-naive rounds.
  std::size_t facts_derived = 0;    // IDB facts (excluding EDB).
  std::size_t rows_scanned = 0;     // Rows touched by CQ evaluation.
  // Rule evaluations: the semi-naive engine evaluates a rule once per body
  // atom over new rows, the naive one every rule every round.
  std::size_t delta_index_hits = 0;

  /// Exports as datalog.iterations / datalog.facts_derived /
  /// datalog.delta_index_hits / relational.rows_scanned counters
  /// (accumulating into whatever the registry already holds).
  void ToMetrics(obs::MetricsRegistry& registry) const;
};

/// Evaluates \p program on \p edb and returns EDB + all derived IDB facts:
/// a copy of \p edb continued from zero marks. Aborts, naming a negation
/// cycle (depgraph.h), if the program does not stratify; use wellfounded.h
/// for programs with negative recursion.
///
/// When \p metrics is non-null the run additionally records the
/// datalog.* schema of obs/metrics.h, including the per-iteration
/// datalog.delta_size histogram; with a tracer installed (obs/trace.h)
/// every iteration emits a kDatalogIteration event carrying the delta
/// cardinality.
Instance EvaluateProgram(const Schema& schema, const DatalogProgram& program,
                         const Instance& edb, DatalogStats* stats = nullptr,
                         obs::MetricsRegistry* metrics = nullptr);

/// Naive (recompute-everything) fixpoint — the ablation baseline for the
/// semi-naive engine. Same semantics, more work per iteration.
Instance EvaluateProgramNaive(const Schema& schema,
                              const DatalogProgram& program,
                              const Instance& edb,
                              DatalogStats* stats = nullptr,
                              obs::MetricsRegistry* metrics = nullptr);

/// The semi-naive fixpoint loop, continued from row marks.
///
/// A state closed under the program (an EvaluateProgram result, or the
/// state after an earlier Continue) stays closed when facts are added, up
/// to what those facts derive. Continue derives exactly that, in place
/// over the state, so the state's join indexes stay warm across calls.
/// Instances only append rows, so "inserted since" is a row count per
/// relation (Marks); from zero marks every row is new and Continue is the
/// whole evaluation.
///
/// Strata run bottom-up. First ADom (when the schema has it) gains the
/// values of the EDB rows past the marks, sorted; rows of a relation some
/// rule heads never enter ADom, whether derived or inserted. Round 0 of a
/// stratum treats every row past the marks of a relation the stratum reads
/// as new (inserted, seeded into ADom, or derived by a lower stratum); later
/// rounds treat what the previous round appended to the stratum's heads as
/// new. A round evaluates rule r once per body atom i over new rows
/// (cq RowRange views, no copies): atoms before i read the older rows,
/// atom i the new ones, atoms after i every row present when the round
/// began. So a non-recursive stratum takes one round.
///
/// Negation and ADom need no special case: the state only grows, so a
/// negated atom that holds now held before, and any derivation whose
/// positive atoms are all old was derived before. Negated atoms read
/// lower strata, which are closed when a stratum runs. A derived fact is
/// never withdrawn, so with negation the continued state equals
/// EvaluateProgram over the closed state plus the insertions (its own
/// facts), not over the original EDB plus the insertions.
///
/// Rounds emit kDatalogIteration and count into DatalogStats (ADom seeds
/// are not derived facts). The object keeps no per-state data, so one
/// instance serves any number of states; it refers to \p program's rules,
/// so the program must outlive it. Aborts, naming a negation cycle, if
/// the program does not stratify.
class FixpointContinuation {
 public:
  FixpointContinuation(const Schema& schema, const DatalogProgram& program);

  /// Row count per relation, indexed by RelationId (relations past the end
  /// count as empty): the rows of r at or past marks[r] came later.
  using Marks = std::vector<std::size_t>;
  static Marks Mark(const Instance& state);

  /// \p state was closed under the program when \p closed was taken (any
  /// state is, at zero marks: an empty Marks), and has only had facts
  /// inserted since. Derives everything those facts lead to and appends it
  /// to the state. The rows past \p closed are afterwards exactly the
  /// facts new since the mark: the inserted ones, the ADom seeds, then the
  /// derived ones.
  void Continue(Instance& state, const Marks& closed,
                DatalogStats* stats = nullptr,
                obs::MetricsRegistry* metrics = nullptr) const;

 private:
  struct Stratum {
    std::vector<RelationId> heads;    // Sorted, deduplicated.
    std::vector<RelationId> sources;  // Body relations; sorted, deduped.
    std::vector<const ConjunctiveQuery*> rules;  // Program order.
  };

  std::vector<Stratum> strata_;
  RelationId adom_;                  // Interner::kNotFound without ADom.
  std::vector<bool> not_edb_;        // Rule heads and ADom; see SeedADom.
  std::size_t num_relations_ = 0;    // One past the largest source.
};

/// Name of the built-in active-domain predicate.
inline constexpr std::string_view kADomRelationName = "ADom";

}  // namespace lamp

#endif  // LAMP_DATALOG_EVAL_H_
