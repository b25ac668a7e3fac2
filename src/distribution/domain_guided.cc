#include "distribution/domain_guided.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"

namespace lamp {

DomainGuidedPolicy::DomainGuidedPolicy(std::size_t num_nodes,
                                       std::vector<Value> universe,
                                       DomainAssignment alpha)
    : DistributionPolicy(num_nodes, std::move(universe)),
      alpha_(std::move(alpha)) {
  LAMP_CHECK(num_nodes > 0);
}

DomainGuidedPolicy DomainGuidedPolicy::HashBased(std::size_t num_nodes,
                                                 std::vector<Value> universe,
                                                 std::uint64_t seed) {
  return DomainGuidedPolicy(
      num_nodes, std::move(universe),
      [num_nodes, seed](Value a, std::vector<NodeId>& nodes) {
        nodes.push_back(static_cast<NodeId>(
            HashMix(static_cast<std::uint64_t>(a.v) ^ HashMix(seed)) %
            num_nodes));
      });
}

void DomainGuidedPolicy::RouteRow(RelationId, const Value* row,
                                  std::size_t arity,
                                  std::vector<NodeId>& targets) const {
  const auto start = static_cast<std::ptrdiff_t>(targets.size());
  if (arity == 0) {
    for (NodeId node = 0; node < NumNodes(); ++node) targets.push_back(node);
    return;
  }
  targets.reserve(targets.size() + arity);  // One node per value is usual.
  for (std::size_t i = 0; i < arity; ++i) alpha_(row[i], targets);
  std::sort(targets.begin() + start, targets.end());
  targets.erase(std::unique(targets.begin() + start, targets.end()),
                targets.end());
  // What an assignment names past the last node is no node of the network.
  targets.erase(std::lower_bound(targets.begin() + start, targets.end(),
                                 static_cast<NodeId>(NumNodes())),
                targets.end());
}

}  // namespace lamp
