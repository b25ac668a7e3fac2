#include "lp/edge_packing.h"

#include <set>

#include "common/check.h"

namespace lamp {

namespace {

/// Variable occurrence structure of the body hypergraph: vars[e] is the set
/// of variables of body atom e; all_vars the (dense re-indexed) vertex set.
struct Hypergraph {
  std::vector<std::set<VarId>> edges;
  std::vector<VarId> vertices;  // Sorted distinct VarIds.

  std::size_t IndexOf(VarId v) const {
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      if (vertices[i] == v) return i;
    }
    LAMP_CHECK_MSG(false, "unknown variable");
    return 0;
  }
};

Hypergraph BuildHypergraph(const ConjunctiveQuery& query) {
  Hypergraph h;
  std::set<VarId> all;
  for (const Atom& atom : query.body()) {
    std::set<VarId> vars;
    for (const Term& t : atom.terms) {
      if (t.IsVar()) {
        vars.insert(t.var);
        all.insert(t.var);
      }
    }
    h.edges.push_back(std::move(vars));
  }
  h.vertices.assign(all.begin(), all.end());
  return h;
}

}  // namespace

double FractionalEdgePackingValue(const ConjunctiveQuery& query) {
  const Hypergraph h = BuildHypergraph(query);
  LAMP_CHECK(!h.edges.empty());

  LinearProgram lp;
  lp.num_vars = h.edges.size();
  lp.objective.assign(lp.num_vars, 1.0);
  for (VarId v : h.vertices) {
    LinearProgram::Constraint row;
    row.coeffs.assign(lp.num_vars, 0.0);
    for (std::size_t e = 0; e < h.edges.size(); ++e) {
      if (h.edges[e].count(v) > 0) row.coeffs[e] = 1.0;
    }
    row.type = ConstraintType::kLe;
    row.rhs = 1.0;
    lp.constraints.push_back(std::move(row));
  }
  const LpSolution sol = SolveLp(lp);
  LAMP_CHECK(sol.status == LpSolution::Status::kOptimal);
  return sol.objective_value;
}

ShareExponents OptimalShareExponents(const ConjunctiveQuery& query) {
  const Hypergraph h = BuildHypergraph(query);
  LAMP_CHECK(!h.edges.empty());
  LAMP_CHECK(!h.vertices.empty());

  // Variables: x_0..x_{k-1} (one per hypergraph vertex) plus t.
  // maximize t  s.t.  sum_{v in e} x_v - t >= 0 for every edge e,
  //                   sum_v x_v = 1, x >= 0, t >= 0.
  const std::size_t k = h.vertices.size();
  LinearProgram lp;
  lp.num_vars = k + 1;
  lp.objective.assign(lp.num_vars, 0.0);
  lp.objective[k] = 1.0;

  for (const auto& edge : h.edges) {
    LinearProgram::Constraint row;
    row.coeffs.assign(lp.num_vars, 0.0);
    for (VarId v : edge) row.coeffs[h.IndexOf(v)] = 1.0;
    row.coeffs[k] = -1.0;
    row.type = ConstraintType::kGe;
    row.rhs = 0.0;
    lp.constraints.push_back(std::move(row));
  }
  {
    LinearProgram::Constraint row;
    row.coeffs.assign(lp.num_vars, 0.0);
    for (std::size_t i = 0; i < k; ++i) row.coeffs[i] = 1.0;
    row.type = ConstraintType::kEq;
    row.rhs = 1.0;
    lp.constraints.push_back(std::move(row));
  }

  const LpSolution sol = SolveLp(lp);
  LAMP_CHECK(sol.status == LpSolution::Status::kOptimal);

  ShareExponents result;
  result.exponent.assign(query.NumVars(), 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    result.exponent[h.vertices[i]] = sol.x[i];
  }
  result.load_exponent = sol.objective_value;
  return result;
}

}  // namespace lamp
