#ifndef LAMP_CQ_ATOM_H_
#define LAMP_CQ_ATOM_H_

#include <cstddef>
#include <set>
#include <vector>

#include "cq/term.h"
#include "relational/schema.h"

/// \file
/// Atoms: a relation name applied to terms, e.g. R(x, y) or S(x, 3).

namespace lamp {

/// One atom of a query body or head.
struct Atom {
  RelationId relation = 0;
  std::vector<Term> terms;

  Atom() = default;
  Atom(RelationId rel, std::vector<Term> atom_terms)
      : relation(rel), terms(std::move(atom_terms)) {}

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.relation == b.relation && a.terms == b.terms;
  }
};

/// The variables occurring in \p atom.
inline std::set<VarId> AtomVars(const Atom& atom) {
  std::set<VarId> vars;
  for (const Term& t : atom.terms) {
    if (t.IsVar()) vars.insert(t.var);
  }
  return vars;
}

/// Connected components of \p atoms under shared variables: result[i] is
/// the component of atoms[i], numbered densely in the order of each
/// component's first atom. Constants never connect atoms.
std::vector<std::size_t> AtomComponents(const std::vector<Atom>& atoms);

}  // namespace lamp

#endif  // LAMP_CQ_ATOM_H_
