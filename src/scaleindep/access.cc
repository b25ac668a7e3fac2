#include "scaleindep/access.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/check.h"
#include "cq/valuation.h"

namespace lamp {

namespace {

/// True when every input position of \p constraint is a constant or a
/// bound variable in \p atom.
bool InputsCovered(const Atom& atom, const AccessConstraint& constraint,
                   const std::set<VarId>& bound) {
  for (std::size_t pos : constraint.input_positions) {
    if (pos >= atom.terms.size()) return false;
    const Term& t = atom.terms[pos];
    if (t.IsVar() && bound.count(t.var) == 0) return false;
  }
  return true;
}

}  // namespace

void AccessSchema::Add(AccessConstraint constraint) {
  std::sort(constraint.input_positions.begin(),
            constraint.input_positions.end());
  constraints_.push_back(std::move(constraint));
}

BoundedPlan PlanBoundedEvaluation(const ConjunctiveQuery& query,
                                  const AccessSchema& schema) {
  BoundedPlan plan;
  plan.worst_case_fetches = 0.0;
  double running_product = 1.0;

  std::set<VarId> bound;  // Starts empty: only constants are free inputs.
  std::vector<bool> planned(query.body().size(), false);

  for (std::size_t step = 0; step < query.body().size(); ++step) {
    // Among the accessible (atom, constraint) pairs, pick the one with
    // the smallest fan-out bound (greedy; completeness follows because
    // binding more variables never disables an access).
    std::size_t best_atom = query.body().size();
    const AccessConstraint* best_constraint = nullptr;
    for (std::size_t a = 0; a < query.body().size(); ++a) {
      if (planned[a]) continue;
      const Atom& atom = query.body()[a];
      for (const AccessConstraint& constraint : schema.constraints()) {
        if (constraint.relation != atom.relation) continue;
        if (!InputsCovered(atom, constraint, bound)) continue;
        if (best_constraint == nullptr ||
            constraint.bound < best_constraint->bound) {
          best_atom = a;
          best_constraint = &constraint;
        }
      }
    }
    if (best_constraint == nullptr) {
      plan.bounded = false;
      plan.steps.clear();
      return plan;  // Some atom is unreachable through constrained access.
    }
    planned[best_atom] = true;
    plan.steps.push_back({best_atom, *best_constraint});
    running_product *= static_cast<double>(best_constraint->bound);
    plan.worst_case_fetches += running_product;
    for (const Term& t : query.body()[best_atom].terms) {
      if (t.IsVar()) bound.insert(t.var);
    }
  }
  plan.bounded = true;
  return plan;
}

BoundedEvalResult BoundedEvaluate(const ConjunctiveQuery& query,
                                  const BoundedPlan& plan,
                                  const Instance& instance) {
  LAMP_CHECK_MSG(plan.bounded, "query is not boundedly evaluable");
  LAMP_CHECK_MSG(query.negated().empty(),
                 "bounded evaluation does not support negation");

  BoundedEvalResult result;

  // Per-step index: constraint input-position values -> matching rows
  // (borrowed pointers into the instance's columnar storage). Lazily
  // built; models the index structure the access constraint promises.
  struct StepIndex {
    std::map<std::vector<std::int64_t>, std::vector<const Value*>> buckets;
  };
  std::vector<std::optional<StepIndex>> indexes(plan.steps.size());

  Valuation valuation(query.NumVars());

  std::function<void(std::size_t)> descend = [&](std::size_t depth) {
    if (depth == plan.steps.size()) {
      if (valuation.SatisfiesInequalities(query)) {
        result.output.Insert(valuation.ApplyToAtom(query.head()));
      }
      return;
    }
    const PlanStep& step = plan.steps[depth];
    const Atom& atom = query.body()[step.atom_index];
    const std::vector<std::size_t>& inputs = step.constraint.input_positions;

    if (!indexes[depth].has_value()) {
      StepIndex index;
      instance.ForEachRow(atom.relation, [&](const Value* row) {
        std::vector<std::int64_t> key;
        key.reserve(inputs.size());
        for (std::size_t pos : inputs) key.push_back(row[pos].v);
        index.buckets[std::move(key)].push_back(row);
      });
      indexes[depth] = std::move(index);
    }

    std::vector<std::int64_t> key;
    key.reserve(inputs.size());
    for (std::size_t pos : inputs) {
      key.push_back(valuation.Apply(atom.terms[pos]).v);
    }
    auto it = indexes[depth]->buckets.find(key);
    if (it == indexes[depth]->buckets.end()) return;

    LAMP_CHECK_MSG(it->second.size() <= step.constraint.bound,
                   "instance violates an access constraint");
    for (const Value* row : it->second) {
      ++result.tuples_fetched;
      std::vector<VarId> newly_bound;
      bool ok = true;
      for (std::size_t i = 0; i < atom.terms.size() && ok; ++i) {
        const Term& t = atom.terms[i];
        if (t.IsConst()) {
          ok = t.constant == row[i];
        } else if (valuation.IsBound(t.var)) {
          ok = valuation.Get(t.var) == row[i];
        } else {
          valuation.Bind(t.var, row[i]);
          newly_bound.push_back(t.var);
        }
      }
      if (ok) descend(depth + 1);
      for (VarId v : newly_bound) valuation.Unbind(v);
    }
  };

  descend(0);
  return result;
}

}  // namespace lamp
