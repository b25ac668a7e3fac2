#include "distribution/policy.h"

namespace lamp {

Instance DistributionPolicy::LocalInstance(const Instance& instance,
                                           NodeId node) const {
  Instance local;
  instance.ForEachFact([this, node, &local](const Fact& f) {
    if (IsResponsible(node, f)) local.Insert(f);
  });
  return local;
}

void DistributionPolicy::RouteRow(RelationId relation, const Value* row,
                                  std::size_t arity,
                                  std::vector<NodeId>& targets) const {
  const Fact fact(relation, std::vector<Value>(row, row + arity));
  for (NodeId n = 0; n < NumNodes(); ++n) {
    if (IsResponsible(n, fact)) targets.push_back(n);
  }
}

std::vector<NodeId> DistributionPolicy::ResponsibleNodes(
    const Fact& fact) const {
  std::vector<NodeId> nodes;
  RouteRow(fact.relation, fact.args.data(), fact.args.size(), nodes);
  return nodes;
}

bool DistributionPolicy::SomeNodeHasAll(const Instance& facts) const {
  for (NodeId n = 0; n < NumNodes(); ++n) {
    bool has_all = true;
    facts.ForEachFact([this, n, &has_all](const Fact& f) {
      if (has_all && !IsResponsible(n, f)) has_all = false;
    });
    if (has_all) return true;
  }
  return false;
}

}  // namespace lamp
