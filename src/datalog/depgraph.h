#ifndef LAMP_DATALOG_DEPGRAPH_H_
#define LAMP_DATALOG_DEPGRAPH_H_

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "datalog/program.h"
#include "relational/schema.h"

/// \file
/// The predicate dependency graph of a Datalog program: one node per
/// relation, one edge head -> body-relation per body (or negated) atom,
/// labeled positive/negative and carrying the rule that induced it.
///
/// The evaluator (eval.h) and the static analyzer (src/sa) both read
/// their stratification from this graph: stratifiability is the absence
/// of a negative edge inside a strongly connected component, the stratum
/// assignment is a longest-path computation over the SCC condensation,
/// and dead derivations are condensation nodes unreachable from the
/// declared outputs. When a program does not stratify, the graph yields
/// the concrete negation cycle (relations, rule, atom) as the witness.

namespace lamp {

/// A stratification: strata[k] lists the indices of the rules evaluated in
/// stratum k (bottom-up order).
using Stratification = std::vector<std::vector<std::size_t>>;

/// One dependency: the head of rule \p rule_index reads \p body.
struct DepEdge {
  RelationId head = 0;
  RelationId body = 0;
  bool negative = false;
  std::size_t rule_index = 0;
  /// Index into rule.body() (positive) or rule.negated() (negative).
  std::size_t atom_index = 0;
};

/// Witness that a program does not stratify: a dependency cycle
/// `relations[0] -> relations[1] -> ... -> relations[0]` whose first step
/// is the negative edge contributed by rule \p rule_index (negated atom
/// \p atom_index).
struct NegationCycle {
  std::vector<RelationId> relations;
  std::size_t rule_index = 0;
  std::size_t atom_index = 0;
};

/// Renders "WIN -!-> WIN (rule 0)" style summaries for diagnostics.
std::string DescribeNegationCycle(const Schema& schema,
                                  const NegationCycle& cycle);

/// A successful stratification, both by relation and by rule.
struct StratumAssignment {
  /// Stratum per relation (EDB relations sit at stratum 0). Only
  /// relations used by the program are present.
  std::map<RelationId, std::size_t> relation_stratum;
  /// Rule indices grouped by stratum, bottom-up, densely numbered; a
  /// program without rules has one empty stratum.
  Stratification rule_strata;
  std::size_t num_strata = 0;
};

/// The graph copies what it reads of the program (edges and rule heads),
/// so it may outlive the program it was built from.
class DependencyGraph {
 public:
  explicit DependencyGraph(const DatalogProgram& program);

  const std::vector<DepEdge>& edges() const { return edges_; }
  const std::set<RelationId>& idb() const { return idb_; }
  /// Every relation occurring in some rule (head or body).
  const std::set<RelationId>& used_relations() const { return used_; }

  /// Strongly connected components of the dependency graph, in reverse
  /// topological order: a component is listed before every component
  /// that depends on it. Relations within a component are ascending.
  const std::vector<std::vector<RelationId>>& Components() const {
    return components_;
  }
  std::size_t ComponentOf(RelationId rel) const;

  /// True iff no negative edge closes a cycle (both endpoints in one SCC).
  bool IsStratifiable() const;

  /// The least stratum assignment, or nullopt when a negation cycle
  /// exists (then FindNegationCycle() yields the witness).
  std::optional<StratumAssignment> Stratify() const;

  /// A concrete negation cycle, or nullopt when the program stratifies.
  std::optional<NegationCycle> FindNegationCycle() const;

  /// Rules whose head relation is not reachable from any relation in
  /// \p outputs along dependency edges — their derivations can never
  /// influence an output. Rules heading an output relation itself are
  /// reachable by definition.
  std::vector<std::size_t> UnreachableRules(
      const std::vector<RelationId>& outputs) const;

 private:
  std::vector<RelationId> rule_heads_;  // Head relation per rule.
  std::vector<DepEdge> edges_;
  std::set<RelationId> idb_;
  std::set<RelationId> used_;
  // Dense SCC structures over used_ relations.
  std::vector<std::vector<RelationId>> components_;
  std::map<RelationId, std::size_t> component_of_;
};

}  // namespace lamp

#endif  // LAMP_DATALOG_DEPGRAPH_H_
