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
/// to the set of facts over U it is *responsible* for. The interface is
/// one routing rule, RouteRow: the inverse map f -> {k : f in
/// rfacts_P(k)}, computed rather than enumerated (the class P_npoly).
/// IsResponsible is membership in it, and the deciders, DistributeByPolicy
/// and the MPC simulator all route through it. Universe() is the finite U
/// the exact deciders quantify over.

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

  /// Appends to \p targets every node responsible for the fact
  /// relation(row[0..arity)), each once and each below NumNodes(), leaving
  /// what \p targets already holds in place. Structured policies
  /// (HyperCube) compute the nodes directly, without allocating when
  /// \p targets has capacity. The MPC simulator routes with it, so it must
  /// be safe to call concurrently (the stock policies share only const
  /// state).
  virtual void RouteRow(RelationId relation, const Value* row,
                        std::size_t arity,
                        std::vector<NodeId>& targets) const = 0;

  /// True iff \p node is among RouteRow's targets for \p fact.
  bool IsResponsible(NodeId node, const Fact& fact) const;

  /// All nodes responsible for \p fact, in RouteRow's order.
  std::vector<NodeId> ResponsibleNodes(const Fact& fact) const;

  /// True when some node is responsible for every fact of \p facts
  /// ("the facts meet at some node" — the core of conditions PC0/PC1).
  bool SomeNodeHasAll(const Instance& facts) const;

 private:
  std::size_t num_nodes_;
  std::vector<Value> universe_;
};

/// The horizontal distribution induced by \p policy on \p instance:
/// locals[k] = loc-inst_{P,I}(k) = I intersect rfacts_P(k), each in
/// \p instance's (relation, insertion) order. One RouteRow call per row.
std::vector<Instance> DistributeByPolicy(const Instance& instance,
                                         const DistributionPolicy& policy);

}  // namespace lamp

#endif  // LAMP_DISTRIBUTION_POLICY_H_
