#include "cq/valuation.h"

#include <sstream>

#include "common/check.h"

namespace lamp {

Value Valuation::Get(VarId v) const {
  LAMP_CHECK(v < slots_.size() && slots_[v].has_value());
  return *slots_[v];
}

bool Valuation::IsTotal() const {
  for (const auto& s : slots_) {
    if (!s.has_value()) return false;
  }
  return true;
}

Value Valuation::Apply(const Term& term) const {
  return term.IsConst() ? term.constant : Get(term.var);
}

Fact Valuation::ApplyToAtom(const Atom& atom) const {
  std::vector<Value> args;
  args.reserve(atom.terms.size());
  for (const Term& t : atom.terms) args.push_back(Apply(t));
  return Fact(atom.relation, std::move(args));
}

Instance Valuation::RequiredFacts(const ConjunctiveQuery& query) const {
  Instance required;
  for (const Atom& atom : query.body()) {
    required.Insert(ApplyToAtom(atom));
  }
  return required;
}

bool Valuation::SatisfiesInequalities(const ConjunctiveQuery& query) const {
  for (const auto& [a, b] : query.inequalities()) {
    if (Apply(a) == Apply(b)) return false;
  }
  return true;
}

bool Valuation::Satisfies(const ConjunctiveQuery& query,
                          const Instance& instance) const {
  for (const Atom& atom : query.body()) {
    if (!instance.Contains(ApplyToAtom(atom))) return false;
  }
  if (!SatisfiesInequalities(query)) return false;
  for (const Atom& atom : query.negated()) {
    if (instance.Contains(ApplyToAtom(atom))) return false;
  }
  return true;
}

std::string Valuation::ToString(const ConjunctiveQuery& query) const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (VarId v = 0; v < slots_.size(); ++v) {
    if (!slots_[v].has_value()) continue;
    if (!first) os << ", ";
    first = false;
    os << query.VarName(v) << "->" << slots_[v]->v;
  }
  os << "}";
  return os.str();
}

}  // namespace lamp
