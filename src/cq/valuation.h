#ifndef LAMP_CQ_VALUATION_H_
#define LAMP_CQ_VALUATION_H_

#include <optional>
#include <string>
#include <vector>

#include "cq/cq.h"
#include "relational/instance.h"

/// \file
/// Valuations: total functions from query variables to domain values
/// (Section 2 of the paper), and their application to atoms and bodies.

namespace lamp {

/// A (possibly partial) assignment of values to the variables of one query.
/// Partiality exists only during backtracking evaluation; the paper's
/// valuations are the total ones (IsTotal()).
class Valuation {
 public:
  /// Creates the empty assignment for a query with \p num_vars variables.
  explicit Valuation(std::size_t num_vars) : slots_(num_vars) {}

  bool IsBound(VarId v) const { return slots_[v].has_value(); }
  Value Get(VarId v) const;
  void Bind(VarId v, Value value) { slots_[v] = value; }
  void Unbind(VarId v) { slots_[v].reset(); }

  /// True when every variable is bound.
  bool IsTotal() const;

  std::size_t NumVars() const { return slots_.size(); }

  /// Applies the valuation to a term. Requires variables to be bound.
  Value Apply(const Term& term) const;

  /// Applies the valuation to an atom, producing a fact. Requires all of
  /// the atom's variables to be bound.
  Fact ApplyToAtom(const Atom& atom) const;

  /// V(body_Q): the facts required by this valuation (Section 2).
  /// Requires the valuation to bind every variable of the body.
  Instance RequiredFacts(const ConjunctiveQuery& query) const;

  /// True when all required facts are in \p instance and all inequalities
  /// and negated atoms of \p query are satisfied w.r.t. \p instance.
  bool Satisfies(const ConjunctiveQuery& query, const Instance& instance) const;

  /// True when the inequalities of \p query hold under this valuation.
  bool SatisfiesInequalities(const ConjunctiveQuery& query) const;

  friend bool operator==(const Valuation& a, const Valuation& b) {
    return a.slots_ == b.slots_;
  }

  /// Renders as "{x->1, y->2}" using \p query for variable names.
  std::string ToString(const ConjunctiveQuery& query) const;

 private:
  std::vector<std::optional<Value>> slots_;
};

}  // namespace lamp

#endif  // LAMP_CQ_VALUATION_H_
