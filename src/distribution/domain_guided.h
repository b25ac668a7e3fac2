#ifndef LAMP_DISTRIBUTION_DOMAIN_GUIDED_H_
#define LAMP_DISTRIBUTION_DOMAIN_GUIDED_H_

#include <functional>
#include <vector>

#include "distribution/policy.h"

/// \file
/// Domain-guided distribution policies (Section 5.2.2 of the paper).
///
/// A domain assignment alpha maps each domain value to a set of nodes; the
/// induced policy P_alpha makes every node in alpha(a) responsible for
/// every fact containing a. Domain-guided policies are what the class
/// F2 = A2 = Mdisjoint of coordination-free computations is defined over:
/// they guarantee that for each value a there is a node holding *all* facts
/// that mention a.

namespace lamp {

/// P_alpha for a caller-supplied domain assignment.
class DomainGuidedPolicy : public DistributionPolicy {
 public:
  /// Appends alpha(value), a set of nodes, to the vector it is handed;
  /// must be nonempty for universe values.
  using DomainAssignment = std::function<void(Value, std::vector<NodeId>&)>;

  DomainGuidedPolicy(std::size_t num_nodes, std::vector<Value> universe,
                     DomainAssignment alpha);

  /// The common hash-based assignment alpha(a) = { hash(a) mod p }.
  static DomainGuidedPolicy HashBased(std::size_t num_nodes,
                                      std::vector<Value> universe,
                                      std::uint64_t seed = 0);

  /// The nodes of alpha(a1) u ... u alpha(ak) for R(a1..ak), ascending
  /// and each once; every node for a nullary fact.
  void RouteRow(RelationId relation, const Value* row, std::size_t arity,
                std::vector<NodeId>& targets) const override;

  /// Appends alpha(value) to \p nodes.
  void AssignmentOf(Value value, std::vector<NodeId>& nodes) const {
    alpha_(value, nodes);
  }

 private:
  DomainAssignment alpha_;
};

}  // namespace lamp

#endif  // LAMP_DISTRIBUTION_DOMAIN_GUIDED_H_
