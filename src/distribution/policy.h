#ifndef LAMP_DISTRIBUTION_POLICY_H_
#define LAMP_DISTRIBUTION_POLICY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "relational/instance.h"

/// \file
/// Distribution policies (Section 4.1 of the paper).
///
/// A distribution policy P = (U, rfacts_P) for a network N maps each node
/// to the set of facts over U it is *responsible* for. The interface is the
/// membership test IsResponsible(node, fact) — the paper's class P_npoly,
/// where responsibility is decided by an algorithm rather than enumerated —
/// plus the finite universe U that the exact deciders quantify over.

namespace lamp {

/// Identifier of a network node; nodes are 0 .. NumNodes()-1.
using NodeId = std::uint32_t;

/// Abstract distribution policy.
class DistributionPolicy {
 public:
  DistributionPolicy(std::size_t num_nodes, std::vector<Value> universe)
      : num_nodes_(num_nodes), universe_(std::move(universe)) {}
  virtual ~DistributionPolicy() = default;

  /// Number of nodes in the network N.
  std::size_t NumNodes() const { return num_nodes_; }

  /// The finite universe U the policy is defined over. Deciders enumerate
  /// valuations over this set (Proposition 4.6).
  const std::vector<Value>& Universe() const { return universe_; }

  /// True iff \p node is responsible for \p fact.
  virtual bool IsResponsible(NodeId node, const Fact& fact) const = 0;

  /// loc-inst_{P,I}(node) = I intersect rfacts_P(node).
  Instance LocalInstance(const Instance& instance, NodeId node) const;

  /// Appends to \p targets every node responsible for the fact
  /// relation(row[0..arity)), each at most once, leaving what \p targets
  /// already holds in place. This is the override point for routing: the
  /// default scans IsResponsible over every node, and structured policies
  /// (HyperCube) compute the nodes directly, without allocating when
  /// \p targets has capacity. The MPC simulator routes with it, so it must
  /// be safe to call concurrently (the stock policies share only const
  /// state).
  virtual void RouteRow(RelationId relation, const Value* row,
                        std::size_t arity, std::vector<NodeId>& targets) const;

  /// All nodes responsible for \p fact, in RouteRow's order.
  std::vector<NodeId> ResponsibleNodes(const Fact& fact) const;

  /// True when some node is responsible for every fact of \p facts
  /// ("the facts meet at some node" — the core of conditions PC0/PC1).
  bool SomeNodeHasAll(const Instance& facts) const;

 private:
  std::size_t num_nodes_;
  std::vector<Value> universe_;
};

}  // namespace lamp

#endif  // LAMP_DISTRIBUTION_POLICY_H_
