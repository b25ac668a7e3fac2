#include "cq/cq.h"

#include <sstream>

#include "common/check.h"

namespace lamp {

namespace {

void CollectVars(const Atom& atom, std::set<VarId>& vars) {
  for (const Term& t : atom.terms) {
    if (t.IsVar()) vars.insert(t.var);
  }
}

void AppendAtom(const Schema& schema, const ConjunctiveQuery& query,
                const Atom& atom, std::ostringstream& os) {
  os << schema.NameOf(atom.relation) << "(";
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) os << ",";
    const Term& t = atom.terms[i];
    if (t.IsVar()) {
      os << query.VarName(t.var);
    } else {
      os << t.constant.v;
    }
  }
  os << ")";
}

}  // namespace

VarId ConjunctiveQuery::VarIdOf(std::string_view name) {
  return var_names_.Intern(name);
}

VarId ConjunctiveQuery::FindVar(std::string_view name) const {
  const VarId id = var_names_.Find(name);
  LAMP_CHECK_MSG(id != Interner::kNotFound, "unknown variable");
  return id;
}

void ConjunctiveQuery::SetNegatedRelation(std::size_t index,
                                          RelationId relation) {
  LAMP_CHECK(index < negated_.size());
  negated_[index].relation = relation;
}

std::optional<std::string> ConjunctiveQuery::SafetyViolation() const {
  const std::set<VarId> body_vars = BodyVars();
  for (const Term& t : head_.terms) {
    if (t.IsVar() && body_vars.count(t.var) == 0) {
      return "head variable '" + VarName(t.var) +
             "' does not occur in a positive body atom";
    }
  }
  for (const Atom& atom : negated_) {
    for (const Term& t : atom.terms) {
      if (t.IsVar() && body_vars.count(t.var) == 0) {
        return "variable '" + VarName(t.var) +
               "' of a negated atom does not occur in a positive body atom";
      }
    }
  }
  for (const auto& [a, b] : inequalities_) {
    for (const Term& t : {a, b}) {
      if (t.IsVar() && body_vars.count(t.var) == 0) {
        return "variable '" + VarName(t.var) +
               "' of an inequality does not occur in a positive body atom";
      }
    }
  }
  return std::nullopt;
}

void ConjunctiveQuery::Validate() const {
  const std::optional<std::string> violation = SafetyViolation();
  if (violation.has_value()) {
    const std::string message = "unsafe query: " + *violation;
    LAMP_CHECK_MSG(false, message.c_str());
  }
}

std::set<VarId> ConjunctiveQuery::BodyVars() const {
  std::set<VarId> vars;
  for (const Atom& atom : body_) CollectVars(atom, vars);
  return vars;
}

std::set<VarId> ConjunctiveQuery::HeadVars() const {
  std::set<VarId> vars;
  CollectVars(head_, vars);
  return vars;
}

std::set<Value> ConjunctiveQuery::Constants() const {
  std::set<Value> consts;
  auto collect = [&consts](const Atom& atom) {
    for (const Term& t : atom.terms) {
      if (t.IsConst()) consts.insert(t.constant);
    }
  };
  collect(head_);
  for (const Atom& atom : body_) collect(atom);
  for (const Atom& atom : negated_) collect(atom);
  for (const auto& [a, b] : inequalities_) {
    if (a.IsConst()) consts.insert(a.constant);
    if (b.IsConst()) consts.insert(b.constant);
  }
  return consts;
}

bool ConjunctiveQuery::IsFull() const {
  const std::set<VarId> head_vars = HeadVars();
  for (VarId v : BodyVars()) {
    if (head_vars.count(v) == 0) return false;
  }
  return true;
}

bool ConjunctiveQuery::HasSelfJoin() const {
  std::set<RelationId> seen;
  for (const Atom& atom : body_) {
    if (!seen.insert(atom.relation).second) return true;
  }
  return false;
}

std::string ConjunctiveQuery::ToString(const Schema& schema) const {
  std::ostringstream os;
  AppendAtom(schema, *this, head_, os);
  os << " <- ";
  bool first = true;
  for (const Atom& atom : body_) {
    if (!first) os << ", ";
    first = false;
    AppendAtom(schema, *this, atom, os);
  }
  for (const Atom& atom : negated_) {
    if (!first) os << ", ";
    first = false;
    os << "!";
    AppendAtom(schema, *this, atom, os);
  }
  for (const auto& [a, b] : inequalities_) {
    if (!first) os << ", ";
    first = false;
    auto term_str = [this](const Term& t) {
      return t.IsVar() ? VarName(t.var) : std::to_string(t.constant.v);
    };
    os << term_str(a) << " != " << term_str(b);
  }
  return os.str();
}

}  // namespace lamp
