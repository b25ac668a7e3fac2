#include "datalog/wellfounded.h"

#include <map>
#include <string>

#include "datalog/eval.h"

namespace lamp {

WellFoundedModel EvaluateWellFounded(Schema& schema,
                                     const DatalogProgram& program,
                                     const Instance& edb) {
  const std::set<RelationId> idb = program.IdbRelations();

  // Shadow relations for IDB predicates that occur negated; negation in
  // the rewritten program points at the shadow, which holds the current
  // assumed set. Negated EDB atoms keep their meaning (the EDB is total).
  std::map<RelationId, RelationId> shadow;
  DatalogProgram rewritten;
  for (const ConjunctiveQuery& rule : program.rules()) {
    ConjunctiveQuery copy = rule;
    for (std::size_t i = 0; i < rule.negated().size(); ++i) {
      const RelationId rel = rule.negated()[i].relation;
      if (idb.count(rel) == 0) continue;
      auto it = shadow.find(rel);
      if (it == shadow.end()) {
        it = shadow
                 .emplace(rel, schema.AddRelation(
                                   "__assumed_" + schema.NameOf(rel),
                                   schema.ArityOf(rel)))
                 .first;
      }
      copy.SetNegatedRelation(i, it->second);
    }
    rewritten.AddRule(std::move(copy));
  }
  // One continuation serves every gamma step, so the rewritten program is
  // stratified once. It always stratifies: negation now reads shadows,
  // which no rule derives.
  const FixpointContinuation fixpoint(schema, rewritten);

  // Gamma(X): least model with negation evaluated against the fixed X.
  auto gamma = [&](const Instance& assumed) -> Instance {
    Instance working = edb;
    for (const auto& [rel, shadow_rel] : shadow) {
      const RowsView rows = assumed.RowsOf(rel);
      working.InsertRows(shadow_rel, rows.data, rows.num_rows, rows.arity);
    }
    fixpoint.Continue(working, {});
    return working.SelectRelations(
        [&idb](RelationId r) { return idb.count(r) > 0; });
  };

  // Alternating fixpoint: A0 = empty, A_{i+1} = Gamma(A_i). Evens ascend
  // to the true set, odds descend to the possible set.
  WellFoundedModel model;
  Instance even;             // A_0.
  Instance odd = gamma(even);  // A_1.
  ++model.gamma_applications;
  while (true) {
    Instance next_even = gamma(odd);
    ++model.gamma_applications;
    if (next_even == even) break;
    even = std::move(next_even);
    odd = gamma(even);
    ++model.gamma_applications;
  }

  model.undefined_facts = odd.Minus(even);
  model.true_facts = std::move(even);
  return model;
}

}  // namespace lamp
