#ifndef LAMP_DISTRIBUTION_POLICIES_H_
#define LAMP_DISTRIBUTION_POLICIES_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "cq/cq.h"
#include "distribution/policy.h"
#include "relational/schema.h"

/// \file
/// Concrete distribution policies:
///
///  * FinitePolicy — the paper's class P_fin: all (node, fact) pairs are
///    enumerated explicitly;
///  * LambdaPolicy — responsibility decided by an arbitrary predicate (the
///    class P_npoly made concrete; used to express Example 4.3 directly);
///  * HashPolicy — repartition by key columns (Example 3.1(1a)). It is
///    what the repartition join runs (RepartitionJoin, tools/mpc_procs); a
///    relation without a key goes to no node;
///  * GridPolicy — the fragment-replicate grid (Example 3.1(1b)), what
///    FragmentReplicateJoin runs;
///  * RangePolicy — primary horizontal fragmentation by a threshold on a
///    column (the Customer example of Section 4.1).
///
/// The HyperCube policy lives in hypercube.h and the SharesSkew policy in
/// mpc/shares_skew.h (both are derived from a query). KeyPositions, KeyHash
/// and CanBind are the repartition key every hash-partitioned MPC step
/// shares: HashPolicy, the Yannakakis semijoin and the cascade step;
/// FirstSharedPositions is the join column of the skew-aware joins.

namespace lamp {

/// The repartition key of \p atom on \p shared_vars: the position of the
/// first occurrence of each of those variables in the atom, in the order
/// given. Every shared variable must occur in the atom (checked).
inline std::vector<std::size_t> KeyPositions(
    const Atom& atom, const std::vector<VarId>& shared_vars) {
  std::vector<std::size_t> positions;
  positions.reserve(shared_vars.size());
  for (VarId v : shared_vars) {
    for (std::size_t i = 0; i < atom.terms.size(); ++i) {
      if (atom.terms[i].IsVar() && atom.terms[i].var == v) {
        positions.push_back(i);
        break;
      }
    }
  }
  LAMP_CHECK(positions.size() == shared_vars.size());
  return positions;
}

/// The positions in \p a and in \p b of \p a's first variable (by
/// position) that \p b also has; the atoms must share one (checked).
inline std::pair<std::size_t, std::size_t> FirstSharedPositions(
    const Atom& a, const Atom& b) {
  for (std::size_t i = 0; i < a.terms.size(); ++i) {
    if (!a.terms[i].IsVar()) continue;
    for (std::size_t j = 0; j < b.terms.size(); ++j) {
      if (b.terms[j] == a.terms[i]) return {i, j};
    }
  }
  LAMP_CHECK_MSG(false, "atoms share no variable");
  return {0, 0};
}

/// The repartition hash of \p row on its key \p positions: every
/// hash-partitioned MPC step sends a row to node KeyHash(...) % p, so two
/// rows that agree on the shared variables meet.
inline std::uint64_t KeyHash(const Value* row,
                             const std::vector<std::size_t>& positions,
                             std::uint64_t seed) {
  std::uint64_t h = HashMix(seed);
  for (std::size_t pos : positions) {
    h = HashCombine(h, static_cast<std::uint64_t>(row[pos].v));
  }
  return h;
}

/// True when relation(row[0..arity)) can bind \p atom: same relation and
/// arity, the atom's constants match and each repeated variable reads one
/// value. A row that cannot bind its atom joins with nothing.
inline bool CanBind(const Atom& atom, RelationId relation, const Value* row,
                    std::size_t arity) {
  if (atom.relation != relation || atom.terms.size() != arity) return false;
  for (std::size_t i = 0; i < arity; ++i) {
    const Term& t = atom.terms[i];
    if (t.IsConst()) {
      if (!(t.constant == row[i])) return false;
      continue;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (atom.terms[j] == t) {
        if (!(row[j] == row[i])) return false;
        break;
      }
    }
  }
  return true;
}

/// P_fin: responsibility enumerated fact by fact.
class FinitePolicy : public DistributionPolicy {
 public:
  using DistributionPolicy::DistributionPolicy;

  /// Makes \p node responsible for \p fact.
  void Assign(NodeId node, const Fact& fact);

  /// The fact's table entry, ascending.
  void RouteRow(RelationId relation, const Value* row, std::size_t arity,
                std::vector<NodeId>& targets) const override;

 private:
  std::unordered_map<Fact, std::set<NodeId>, FactHash> responsible_;
};

/// Responsibility decided by a caller-supplied predicate.
class LambdaPolicy : public DistributionPolicy {
 public:
  using Predicate = std::function<bool(NodeId, const Fact&)>;

  LambdaPolicy(std::size_t num_nodes, std::vector<Value> universe,
               Predicate predicate)
      : DistributionPolicy(num_nodes, std::move(universe)),
        predicate_(std::move(predicate)) {}

  /// The nodes whose predicate holds, ascending: the one policy that
  /// scans every node.
  void RouteRow(RelationId relation, const Value* row, std::size_t arity,
                std::vector<NodeId>& targets) const override {
    const Fact fact(relation, std::vector<Value>(row, row + arity));
    for (NodeId node = 0; node < NumNodes(); ++node) {
      if (predicate_(node, fact)) targets.push_back(node);
    }
  }

 private:
  Predicate predicate_;
};

/// Hash repartitioning: each keyed relation declares the columns forming
/// its distribution key, and a fact goes to the single node
/// KeyHash(fact, key, seed) mod p. Relations without a key go to no node.
/// RouteRow reads the key by relation id: no Fact, no allocation, no map
/// lookup. A keyed relation's rows must hold every key column.
class HashPolicy : public DistributionPolicy {
 public:
  HashPolicy(std::size_t num_nodes, std::vector<Value> universe,
             std::uint64_t seed = 0)
      : DistributionPolicy(num_nodes, std::move(universe)), seed_(seed) {}

  /// Declares the key columns of \p relation.
  void SetKey(RelationId relation, std::vector<std::size_t> columns);

  void RouteRow(RelationId relation, const Value* row, std::size_t arity,
                std::vector<NodeId>& targets) const override;

 private:
  /// The key of \p relation, or nullptr when it has none.
  const std::vector<std::size_t>* KeyOf(RelationId relation) const {
    return relation < keys_.size() && keys_[relation].has_value()
               ? &*keys_[relation]
               : nullptr;
  }

  std::uint64_t seed_;
  std::vector<std::optional<std::vector<std::size_t>>> keys_;  // By id.
};

/// The fragment-replicate grid (Example 3.1(1b), the drug-interaction
/// pattern): with g = floor(sqrt(p)), nodes 0 .. g*g-1 form a g x g grid.
/// A fact of the row relation goes to the g nodes of row group
/// (RowHash(fact) ^ HashMix(seed)) mod g, a fact of the column relation to
/// the g nodes of its column group, so every (row fact, column fact) pair
/// meets at one node whatever the values' skew. Other relations, and the
/// nodes from g*g on, get nothing.
class GridPolicy : public DistributionPolicy {
 public:
  GridPolicy(std::size_t num_nodes, RelationId row_relation,
             RelationId column_relation, std::vector<Value> universe,
             std::uint64_t seed = 0);

  void RouteRow(RelationId relation, const Value* row, std::size_t arity,
                std::vector<NodeId>& targets) const override;

 private:
  /// The fact's row or column group.
  std::size_t Group(RelationId relation, const Value* row,
                    std::size_t arity) const {
    return (RowHash(relation, row, arity) ^ salt_) % side_;
  }

  RelationId row_relation_;
  RelationId column_relation_;
  std::size_t side_;    // g.
  std::uint64_t salt_;  // HashMix(seed).
};

/// Range partitioning on one column: node i gets facts whose key value lies
/// in [bounds[i-1], bounds[i]) with open ends at the extremes. Non-keyed
/// relations are broadcast.
class RangePolicy : public DistributionPolicy {
 public:
  /// \p bounds must be strictly increasing; the policy has
  /// bounds.size() + 1 nodes.
  RangePolicy(std::vector<Value> universe, RelationId keyed_relation,
              std::size_t column, std::vector<std::int64_t> bounds);

  /// The key's bucket, or every node for a relation without the key.
  void RouteRow(RelationId relation, const Value* row, std::size_t arity,
                std::vector<NodeId>& targets) const override;

 private:
  RelationId keyed_relation_;
  std::size_t column_;
  std::vector<std::int64_t> bounds_;
};

/// Helper: the universe {0, 1, ..., n-1} as Values.
std::vector<Value> MakeUniverse(std::size_t n);

}  // namespace lamp

#endif  // LAMP_DISTRIBUTION_POLICIES_H_
