#ifndef LAMP_CQ_CQ_H_
#define LAMP_CQ_CQ_H_

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "cq/atom.h"

/// \file
/// Conjunctive queries (Section 2 of the paper), with the extensions the
/// surveyed results need: inequalities between terms (CQ with !=) and
/// negated body atoms (CQ-not), plus unions (UCQ) in ucq.h.

namespace lamp {

/// A conjunctive query H(x) <- R1(y1), ..., Rm(ym) with optional inequality
/// conditions and negated atoms.
///
/// Safety requirements (checked by Validate):
///  * every head variable occurs in some positive body atom;
///  * every variable of a negated atom occurs in some positive body atom;
///  * every variable of an inequality occurs in some positive body atom.
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;

  // -- Construction ---------------------------------------------------------

  /// Interns a variable name, returning its dense id.
  VarId VarIdOf(std::string_view name);

  /// Returns the id of an already-interned variable; checked error if the
  /// query has no such variable.
  VarId FindVar(std::string_view name) const;

  /// Sets the head atom.
  void SetHead(Atom head) { head_ = std::move(head); }

  /// Appends a positive body atom.
  void AddBodyAtom(Atom atom) { body_.push_back(std::move(atom)); }

  /// Appends a negated body atom (CQ-not).
  void AddNegatedAtom(Atom atom) { negated_.push_back(std::move(atom)); }

  /// Adds the condition a != b.
  void AddInequality(Term a, Term b) { inequalities_.emplace_back(a, b); }

  /// Rebinds negated atom \p index to relation \p relation (same arity).
  /// Used by the well-founded evaluator to point negation at the shadow
  /// relation holding the current assumed set.
  void SetNegatedRelation(std::size_t index, RelationId relation);

  /// First safety violation as a human-readable message (naming the
  /// variable and where it occurs), or nullopt when the query is safe.
  /// The non-aborting core of Validate(), used by the static analyzer
  /// (src/sa) to lint unvalidated rules.
  std::optional<std::string> SafetyViolation() const;

  /// Aborts if the query violates the safety requirements above.
  void Validate() const;

  // -- Accessors -------------------------------------------------------------

  const Atom& head() const { return head_; }
  const std::vector<Atom>& body() const { return body_; }
  const std::vector<Atom>& negated() const { return negated_; }
  const std::vector<std::pair<Term, Term>>& inequalities() const {
    return inequalities_;
  }

  /// Number of distinct variables.
  std::size_t NumVars() const { return var_names_.size(); }

  /// Name of variable \p v.
  const std::string& VarName(VarId v) const { return var_names_.NameOf(v); }

  /// The set of variables occurring in the positive body.
  std::set<VarId> BodyVars() const;

  /// The set of variables occurring in the head.
  std::set<VarId> HeadVars() const;

  /// Constants occurring anywhere in the query.
  std::set<Value> Constants() const;

  // -- Structural properties -------------------------------------------------

  /// True when the query has neither negated atoms nor inequalities.
  bool IsPlain() const { return negated_.empty() && inequalities_.empty(); }

  /// True when every body variable occurs in the head ("full" CQ; the class
  /// HyperCube is analyzed for).
  bool IsFull() const;

  /// True when some relation occurs in two different positive atoms.
  bool HasSelfJoin() const;

  /// True when the query is boolean (nullary head).
  bool IsBoolean() const { return head_.terms.empty(); }

  /// Renders the query in rule syntax using \p schema for relation names.
  std::string ToString(const Schema& schema) const;

 private:
  Atom head_;
  std::vector<Atom> body_;
  std::vector<Atom> negated_;
  std::vector<std::pair<Term, Term>> inequalities_;
  Interner var_names_;
};

}  // namespace lamp

#endif  // LAMP_CQ_CQ_H_
