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
      [num_nodes, seed](Value a) -> std::vector<NodeId> {
        return {static_cast<NodeId>(
            HashMix(static_cast<std::uint64_t>(a.v) ^ HashMix(seed)) %
            num_nodes)};
      });
}

bool DomainGuidedPolicy::IsResponsible(NodeId node, const Fact& fact) const {
  if (fact.args.empty()) return true;
  for (Value a : fact.args) {
    const std::vector<NodeId> nodes = alpha_(a);
    if (std::find(nodes.begin(), nodes.end(), node) != nodes.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace lamp
