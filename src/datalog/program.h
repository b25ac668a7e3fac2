#ifndef LAMP_DATALOG_PROGRAM_H_
#define LAMP_DATALOG_PROGRAM_H_

#include <set>
#include <string_view>
#include <vector>

#include "cq/cq.h"
#include "relational/schema.h"

/// \file
/// Datalog programs with stratified negation and inequalities
/// (Section 5.3 of the paper). A rule is a ConjunctiveQuery whose head
/// relation is intensional; rules may negate atoms and use !=.
///
/// Stratification (and its negation-cycle witness for programs like
/// win-move) is computed by the dependency graph in depgraph.h. The
/// Figure 2 fragments built on it — semi-positive and semi-connected
/// programs — are decided by sa::ClassifyFragments (sa/fragment.h), with
/// per-rule connectedness from AtomComponents (cq/atom.h).

namespace lamp {

/// A Datalog program over some shared Schema.
class DatalogProgram {
 public:
  /// Appends a rule. The rule must be safe (Validate()d by the parser).
  void AddRule(ConjunctiveQuery rule);

  const std::vector<ConjunctiveQuery>& rules() const { return rules_; }

  /// Relations appearing in some rule head.
  std::set<RelationId> IdbRelations() const;

  /// Relations appearing in bodies but never in a head.
  std::set<RelationId> EdbRelations() const;

  /// True when some rule has a negated atom.
  bool HasNegation() const;

 private:
  std::vector<ConjunctiveQuery> rules_;
};

/// Parses a multi-line program: one rule per non-empty line (lines starting
/// with '#' or '%' are comments). Uses the rule syntax of cq/parser.h.
DatalogProgram ParseProgram(Schema& schema, std::string_view text);

}  // namespace lamp

#endif  // LAMP_DATALOG_PROGRAM_H_
