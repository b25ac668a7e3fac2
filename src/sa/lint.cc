#include "sa/lint.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "cq/containment.h"

namespace lamp::sa {

std::string_view LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kError:
      return "error";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kNote:
      return "note";
  }
  return "?";
}

namespace {

std::string RenderAtom(const Schema& schema, const ConjunctiveQuery& rule,
                       const Atom& atom) {
  std::string out(schema.NameOf(atom.relation));
  out += "(";
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) out += ",";
    const Term& t = atom.terms[i];
    out += t.IsVar() ? rule.VarName(t.var) : std::to_string(t.constant.v);
  }
  out += ")";
  return out;
}

std::string RenderTerm(const ConjunctiveQuery& rule, const Term& t) {
  return t.IsVar() ? rule.VarName(t.var) : std::to_string(t.constant.v);
}

void Emit(std::vector<LintDiagnostic>& out, LintSeverity severity,
          std::string_view pass, int rule_index, std::string message) {
  LintDiagnostic d;
  d.severity = severity;
  d.pass = std::string(pass);
  d.rule_index = rule_index;
  d.message = std::move(message);
  out.push_back(std::move(d));
}

}  // namespace

std::vector<LintDiagnostic> LintProgram(const Schema& schema,
                                        const DatalogProgram& program,
                                        const DependencyGraph& graph,
                                        const LintOptions& options) {
  std::vector<LintDiagnostic> out;
  const std::vector<ConjunctiveQuery>& rules = program.rules();

  // -- safety (range restriction) -----------------------------------------
  for (std::size_t k = 0; k < rules.size(); ++k) {
    const ConjunctiveQuery& rule = rules[k];
    const std::set<VarId> bound = rule.BodyVars();
    const int ki = static_cast<int>(k);
    for (const Term& t : rule.head().terms) {
      if (t.IsVar() && bound.count(t.var) == 0) {
        Emit(out, LintSeverity::kError, "safety", ki,
             "head variable '" + rule.VarName(t.var) +
                 "' is not bound by any positive body atom "
                 "(range restriction)");
      }
    }
    for (const Atom& atom : rule.negated()) {
      for (const Term& t : atom.terms) {
        if (t.IsVar() && bound.count(t.var) == 0) {
          Emit(out, LintSeverity::kError, "safety", ki,
               "variable '" + rule.VarName(t.var) + "' of negated atom !" +
                   RenderAtom(schema, rule, atom) +
                   " is not bound by any positive body atom");
        }
      }
    }
    for (const auto& [a, b] : rule.inequalities()) {
      for (const Term& t : {a, b}) {
        if (t.IsVar() && bound.count(t.var) == 0) {
          Emit(out, LintSeverity::kError, "safety", ki,
               "variable '" + rule.VarName(t.var) + "' of inequality " +
                   RenderTerm(rule, a) + " != " + RenderTerm(rule, b) +
                   " is not bound by any positive body atom");
        }
      }
    }
  }

  // -- stratification ------------------------------------------------------
  if (!graph.IsStratifiable()) {
    const std::optional<NegationCycle> cycle = graph.FindNegationCycle();
    Emit(out, LintSeverity::kError, "stratification",
         cycle.has_value() ? static_cast<int>(cycle->rule_index) : -1,
         cycle.has_value()
             ? "program does not stratify: " +
                   DescribeNegationCycle(schema, *cycle) +
                   " — only the well-founded semantics applies"
             : "program does not stratify");
  }

  // -- unsatisfiable-rule --------------------------------------------------
  for (std::size_t k = 0; k < rules.size(); ++k) {
    const ConjunctiveQuery& rule = rules[k];
    const int ki = static_cast<int>(k);
    bool flagged = false;
    for (const Atom& neg : rule.negated()) {
      for (const Atom& pos : rule.body()) {
        if (pos == neg && !flagged) {
          Emit(out, LintSeverity::kWarning, "unsatisfiable-rule", ki,
               "rule both asserts and negates " +
                   RenderAtom(schema, rule, pos) + " — it can never fire");
          flagged = true;
        }
      }
    }
    for (const auto& [a, b] : rule.inequalities()) {
      if (a == b && !flagged) {
        Emit(out, LintSeverity::kWarning, "unsatisfiable-rule", ki,
             "inequality " + RenderTerm(rule, a) + " != " +
                 RenderTerm(rule, b) + " can never hold — the rule never "
                 "fires");
        flagged = true;
      }
    }
  }

  // -- duplicate-atom ------------------------------------------------------
  for (std::size_t k = 0; k < rules.size(); ++k) {
    const ConjunctiveQuery& rule = rules[k];
    const int ki = static_cast<int>(k);
    const auto scan = [&](const std::vector<Atom>& atoms, bool negated) {
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        for (std::size_t j = i + 1; j < atoms.size(); ++j) {
          if (atoms[i] == atoms[j]) {
            Emit(out, LintSeverity::kWarning, "duplicate-atom", ki,
                 std::string(negated ? "negated atom !" : "atom ") +
                     RenderAtom(schema, rule, atoms[i]) +
                     " is repeated in the body (positions " +
                     std::to_string(i) + " and " + std::to_string(j) + ")");
          }
        }
      }
    };
    scan(rule.body(), false);
    scan(rule.negated(), true);
  }

  // -- subsumed-rule -------------------------------------------------------
  if (options.subsumption) {
    // Rule i is redundant when some rule j with the same head relation
    // contains it as a CQ: everything i derives, j derives too, so the
    // immediate-consequence operator (and hence the fixpoint) is
    // unchanged by dropping i. Negated rules are skipped (containment.h
    // is exact only without negation), as are unsafe rules (no canonical
    // database).
    const auto eligible = [](const ConjunctiveQuery& rule) {
      return rule.negated().empty() && !rule.SafetyViolation().has_value();
    };
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (!eligible(rules[i])) continue;
      for (std::size_t j = 0; j < rules.size(); ++j) {
        if (i == j || !eligible(rules[j])) continue;
        if (rules[i].head().relation != rules[j].head().relation) continue;
        if (!IsContainedIn(rules[i], rules[j])) continue;
        // For equivalent pairs flag only the later rule, so exactly one
        // of the two is reported.
        if (IsContainedIn(rules[j], rules[i]) && j > i) continue;
        Emit(out, LintSeverity::kWarning, "subsumed-rule",
             static_cast<int>(i),
             "rule " + std::to_string(i) + " is subsumed by rule " +
                 std::to_string(j) + " — removing it does not change the "
                 "fixpoint");
        break;
      }
    }
  }

  // -- unused-relation -----------------------------------------------------
  for (RelationId rel : options.declared_relations) {
    if (graph.used_relations().count(rel) > 0) continue;
    Emit(out, LintSeverity::kWarning, "unused-relation", -1,
         "relation " + schema.NameOf(rel) + "/" +
             std::to_string(schema.ArityOf(rel)) +
             " is declared but never used by any rule");
  }

  // -- dead-rule -----------------------------------------------------------
  if (!options.outputs.empty()) {
    for (std::size_t k : graph.UnreachableRules(options.outputs)) {
      const ConjunctiveQuery& rule = rules[k];
      Emit(out, LintSeverity::kWarning, "dead-rule", static_cast<int>(k),
           "rule derives " + schema.NameOf(rule.head().relation) +
               ", which cannot reach any declared output relation");
    }
  }

  // -- cross-product -------------------------------------------------------
  // Components of the positive body under shared variables; constants
  // never connect atoms, but negated atoms and inequalities do (their
  // variables must be co-located too, so `ADom(x), ADom(y), !TC(x,y)` is
  // connected, not a cross product). Two or more components mean the
  // rule joins with no join key — the same hazard the sa/plan cost model
  // raises for the plain queries it routes.
  for (std::size_t k = 0; k < rules.size(); ++k) {
    const ConjunctiveQuery& rule = rules[k];
    const std::vector<Atom>& body = rule.body();
    if (body.size() < 2) continue;
    // Each negated atom and inequality joins, as one more atom after the
    // body, the components of its variables that the body binds (an
    // unbound one is the safety pass's business).
    const std::set<VarId> bound = rule.BodyVars();
    std::vector<Atom> atoms = body;
    const auto link = [&](std::vector<Term> terms) {
      std::erase_if(terms, [&bound](const Term& t) {
        return !t.IsVar() || bound.count(t.var) == 0;
      });
      atoms.emplace_back(RelationId{0}, std::move(terms));
    };
    for (const Atom& neg : rule.negated()) link(neg.terms);
    for (const auto& [a, b] : rule.inequalities()) link({a, b});
    // The body atoms come first, so their components are numbered
    // 0..n-1 in first-atom order.
    std::vector<std::size_t> component = AtomComponents(atoms);
    component.resize(body.size());
    const std::size_t num_components =
        *std::max_element(component.begin(), component.end()) + 1;
    if (num_components < 2) continue;
    std::string groups;
    for (std::size_t c = 0; c < num_components; ++c) {
      if (!groups.empty()) groups += " x ";
      groups += "{";
      bool first = true;
      for (std::size_t a = 0; a < body.size(); ++a) {
        if (component[a] != c) continue;
        if (!first) groups += ", ";
        groups += RenderAtom(schema, rule, body[a]);
        first = false;
      }
      groups += "}";
    }
    Emit(out, LintSeverity::kWarning, "cross-product", static_cast<int>(k),
         "body splits into " + std::to_string(num_components) +
             " components sharing no variable (" + groups +
             ") — the join is a cross product with no key to route on");
  }

  // -- no-statistics -------------------------------------------------------
  if (options.have_catalog) {
    const std::set<RelationId> known(options.catalog_relations.begin(),
                                     options.catalog_relations.end());
    // IDB relations (some rule's head) have derived cardinalities no
    // catalog carries; only extensional atoms need statistics.
    std::set<RelationId> idb;
    for (const ConjunctiveQuery& rule : rules) {
      idb.insert(rule.head().relation);
    }
    for (std::size_t k = 0; k < rules.size(); ++k) {
      const ConjunctiveQuery& rule = rules[k];
      std::set<RelationId> flagged;  // Once per relation per rule.
      for (const Atom& atom : rule.body()) {
        if (known.count(atom.relation) > 0 ||
            idb.count(atom.relation) > 0) {
          continue;
        }
        if (!flagged.insert(atom.relation).second) continue;
        Emit(out, LintSeverity::kWarning, "no-statistics",
             static_cast<int>(k),
             "no cardinality for " + schema.NameOf(atom.relation) + "/" +
                 std::to_string(schema.ArityOf(atom.relation)) +
                 " in the statistics catalog — the planner treats the "
                 "atom as empty");
      }
    }
  }

  return out;
}

}  // namespace lamp::sa
