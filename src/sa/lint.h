#ifndef LAMP_SA_LINT_H_
#define LAMP_SA_LINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/depgraph.h"
#include "datalog/program.h"
#include "relational/schema.h"

/// \file
/// Safety / range-restriction and redundancy lint for Datalog programs.
///
/// Passes (each diagnostic names its pass, so tooling can filter):
///   safety             head / negated / inequality variable not bound by
///                      a positive body atom (range restriction) — error
///   stratification     negation cycle, with the concrete witness — error
///   unsatisfiable-rule an atom both asserted and negated, or x != x —
///                      the rule can never fire — warning
///   duplicate-atom     an identical atom repeated in one body — warning
///   subsumed-rule      rule i contained in rule j (cq/containment.h) —
///                      removing i cannot change the fixpoint — warning
///   unused-relation    a declared relation no rule mentions — warning
///   dead-rule          with declared outputs: the rule's head cannot
///                      reach any output in the dependency graph — warning
///   cross-product      a rule body splits into components sharing no
///                      variable: the join is a cross product, there is no
///                      join key to route on and every one-round
///                      distribution strategy degenerates to broadcast
///                      (the sa/plan cost model raises the same hazard) —
///                      warning
///   no-statistics      with a statistics catalog: a positive body atom
///                      over a relation the catalog has no cardinality
///                      for — the planner would treat it as empty —
///                      warning
///
/// Errors mean the program has no (stratified) semantics as written;
/// warnings mean it computes what it computes wastefully or suspiciously.

namespace lamp::sa {

enum class LintSeverity : std::uint8_t { kError, kWarning, kNote };

std::string_view LintSeverityName(LintSeverity severity);

struct LintDiagnostic {
  LintSeverity severity = LintSeverity::kWarning;
  std::string pass;
  int rule_index = -1;  // -1: program-level.
  int line = -1;        // 1-based source line when known (text mode).
  std::string message;
};

struct LintOptions {
  /// Run the containment-based subsumption pass (NP-hard per pair; fine
  /// for the rule counts real programs have, switchable for the
  /// synthetic giants the bench generates).
  bool subsumption = true;
  /// Output relations for the dead-rule pass (empty: pass is skipped —
  /// without declared outputs every top-level relation looks like one).
  std::vector<RelationId> outputs;
  /// Relations that should occur in the program (e.g. @edb declarations);
  /// any that do not triggers unused-relation.
  std::vector<RelationId> declared_relations;
  /// Statistics catalog for the no-statistics pass: when true,
  /// `catalog_relations` holds every relation the catalog has a
  /// cardinality for and body atoms over any other relation are flagged.
  /// When false (no catalog supplied) the pass is skipped.
  bool have_catalog = false;
  std::vector<RelationId> catalog_relations;
};

/// Runs every pass over \p program, whose dependency graph is \p graph.
/// Diagnostics are ordered by pass (in the order documented above), then
/// by rule index — deterministic for golden files. Line numbers are
/// filled by the caller (analyzer.h) when a source mapping exists.
std::vector<LintDiagnostic> LintProgram(const Schema& schema,
                                        const DatalogProgram& program,
                                        const DependencyGraph& graph,
                                        const LintOptions& options = {});

}  // namespace lamp::sa

#endif  // LAMP_SA_LINT_H_
