#ifndef LAMP_DISTRIBUTION_HYPERCUBE_H_
#define LAMP_DISTRIBUTION_HYPERCUBE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cq/cq.h"
#include "distribution/policy.h"

/// \file
/// The HyperCube (Shares) distribution policy (Section 3.1, Example 3.2).
///
/// Servers are arranged in a grid with one dimension per query variable;
/// variable v gets share alpha_v, and a hash function h_v maps domain
/// values to [0, alpha_v). A fact R(a1..ak) matching a body atom is
/// replicated to every server whose coordinates agree with the hashed
/// values at the atom's variable positions — so for every valuation V, all
/// facts required by V meet at the server with coordinates
/// (h_v(V(v)))_v. Every HyperCube distribution therefore *strongly
/// saturates* its query (Section 4.1), independent of shares and hashes.

namespace lamp {

/// Share assignment: shares[v] = alpha_v, indexed by VarId of the query.
using Shares = std::vector<std::size_t>;

/// HyperCube policy for one conjunctive query.
class HypercubePolicy : public DistributionPolicy {
 public:
  /// Builds the grid for \p query with the given \p shares (one entry per
  /// query variable, all >= 1). \p universe is the finite universe used by
  /// the exact deciders; \p seed picks the hash family member.
  HypercubePolicy(const ConjunctiveQuery& query, Shares shares,
                  std::vector<Value> universe, std::uint64_t seed = 0);

  /// The nodes of the sub-grid of every body atom the row matches, atom by
  /// atom, each sub-grid with its lowest free variable varying fastest.
  /// Allocates nothing beyond \p targets' growth; the duplicate check runs
  /// only from the second matching atom on (self-joins).
  void RouteRow(RelationId relation, const Value* row, std::size_t arity,
                std::vector<NodeId>& targets) const override;

  /// h_v(value) in [0, shares[v]).
  std::size_t HashVar(VarId v, Value value) const;

  /// Decodes a node id into its grid coordinates (one per variable).
  std::vector<std::size_t> Coordinates(NodeId node) const;

  /// The grid node at the given coordinates.
  NodeId NodeAt(const std::vector<std::size_t>& coords) const;

  const Shares& shares() const { return shares_; }

  /// Replication factor of a fact matching body atom \p atom_index: the
  /// product of the shares of the variables *not* occurring in that atom.
  std::size_t ReplicationOf(std::size_t atom_index) const;

 private:
  /// How one body atom routes, precomputed at construction.
  struct AtomRoute {
    RelationId relation = 0;
    std::size_t arity = 0;
    /// (position, constant) of every constant term.
    std::vector<std::pair<std::size_t, Value>> constants;
    /// (position, variable, position of the variable's first occurrence
    /// in the atom) of every variable term, in position order.
    struct VarTerm {
      std::size_t pos;
      VarId var;
      std::size_t first_pos;
    };
    std::vector<VarTerm> vars;
    /// Node id offsets of the sub-grid over the variables the atom leaves
    /// free, lowest free variable fastest; one entry per replica.
    std::vector<std::size_t> offsets;
  };

  Shares shares_;
  std::vector<std::size_t> stride_;
  std::vector<std::uint64_t> var_salt_;  // HashMix(seed + v), per variable.
  std::vector<AtomRoute> atoms_;         // One per body atom.
};

/// Uniform shares: every variable gets floor(p^(1/k)) (at least 1), the
/// Example 3.2 special case alpha_x = alpha_y = alpha_z = p^(1/3).
Shares UniformShares(const ConjunctiveQuery& query, std::size_t budget);

/// Expected per-server load of the HyperCube distribution with the given
/// \p shares:  sum_atoms m_atom / prod_{v in atom} alpha_v.  Each tuple of
/// atom e lands on a uniformly-hashed cell of the e-dimensions, so this is
/// the exact expectation for every input — including skewed ones. (What
/// skew breaks is the *concentration* of the maximum around this value:
/// a heavy hitter pins one coordinate and a single cell receives the
/// whole heavy group. The audit layer exploits exactly that gap.) This is
/// the same objective OptimizeIntegerShares minimizes.
double ExpectedHyperCubeLoad(const ConjunctiveQuery& query,
                             const Shares& shares,
                             const std::vector<double>& atom_sizes);

/// Best integer shares with product <= \p budget, minimizing the expected
/// per-server load  sum_atoms m_atom / prod_{v in atom} alpha_v  given the
/// relation sizes \p atom_sizes (one per body atom). Exhaustive search over
/// integer grids; budget is expected to be small (<= a few thousand).
Shares OptimizeIntegerShares(const ConjunctiveQuery& query,
                             std::size_t budget,
                             const std::vector<double>& atom_sizes);

/// Cost-model hook for the static planner (sa/plan): among \p candidates
/// plus UniformShares, returns the share vector minimizing
/// ExpectedHyperCubeLoad for the given \p atom_sizes, discarding
/// candidates that are malformed (wrong length, a zero share) or exceed
/// the server \p budget. Ties keep the earlier candidate, so a caller can
/// pin "the shares the bench actually runs" by passing them first.
Shares BestShares(const ConjunctiveQuery& query, std::size_t budget,
                  const std::vector<double>& atom_sizes,
                  const std::vector<Shares>& candidates);

/// The Afrati-Ullman Shares objective: integer shares with product exactly
/// \p num_servers minimizing the *total communication*
/// sum_atoms m_atom * prod_{v not in atom} alpha_v (each tuple of an atom
/// is replicated once per grid cell along the dimensions its atom does not
/// constrain). Exhaustive over the factorizations of num_servers.
Shares OptimizeIntegerSharesTotalComm(const ConjunctiveQuery& query,
                                      std::size_t num_servers,
                                      const std::vector<double>& atom_sizes);

}  // namespace lamp

#endif  // LAMP_DISTRIBUTION_HYPERCUBE_H_
