#ifndef LAMP_LP_EDGE_PACKING_H_
#define LAMP_LP_EDGE_PACKING_H_

#include <vector>

#include "cq/cq.h"
#include "lp/simplex.h"

/// \file
/// The query-hypergraph linear programs behind the paper's load bounds
/// (Section 3.1).
///
/// For a full CQ Q, Beame-Koutris-Suciu show the optimal one-round
/// (HyperCube) maximum load on skew-free data is Theta(m / p^{1/tau*}),
/// where tau* is the value of the optimal *fractional edge packing* of Q's
/// hypergraph. The dual view assigns each variable v a share exponent x_v
/// (the server grid has p^{x_v} coordinates for v); the load of atom e is
/// m / p^{sum_{v in e} x_v}, so the best exponents maximize
/// min_e sum_{v in e} x_v subject to sum_v x_v = 1. LP duality gives
/// that optimum = 1/tau* — the library checks this identity in tests.

namespace lamp {

/// Value tau* of the optimal fractional edge packing:
///   maximize sum_e u_e  s.t.  for every variable v: sum_{e contains v} u_e <= 1,
///   u >= 0.
/// (Triangle: 3/2. k-path R1(x0,x1),...,Rk(x_{k-1},x_k): ceil(k/2)... see
/// tests for the concrete values.)
double FractionalEdgePackingValue(const ConjunctiveQuery& query);

/// Optimal HyperCube share exponents.
struct ShareExponents {
  /// exponent[v] = x_v, indexed by VarId; shares are alpha_v = p^{x_v}.
  std::vector<double> exponent;
  /// min_e sum_{v in e} x_v: the per-relation load is m / p^{load_exponent}.
  /// Equals 1/tau* at the optimum.
  double load_exponent = 0.0;
};

/// Solves the share-exponent LP described above. Requires at least one
/// body atom and at least one variable.
ShareExponents OptimalShareExponents(const ConjunctiveQuery& query);

}  // namespace lamp

#endif  // LAMP_LP_EDGE_PACKING_H_
