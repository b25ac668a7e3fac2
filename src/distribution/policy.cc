#include "distribution/policy.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace lamp {

bool DistributionPolicy::IsResponsible(NodeId node, const Fact& fact) const {
  // The programs ask this once per candidate fact, so the targets reuse
  // one buffer per thread. The call owns the buffer while RouteRow runs: a
  // nested call (a RouteRow that asks another policy) finds it taken and
  // starts an empty one.
  thread_local std::vector<NodeId> spare;
  std::vector<NodeId> nodes = std::move(spare);
  nodes.clear();
  RouteRow(fact.relation, fact.args.data(), fact.args.size(), nodes);
  const bool found = std::find(nodes.begin(), nodes.end(), node) != nodes.end();
  spare = std::move(nodes);
  return found;
}

std::vector<NodeId> DistributionPolicy::ResponsibleNodes(
    const Fact& fact) const {
  std::vector<NodeId> nodes;
  RouteRow(fact.relation, fact.args.data(), fact.args.size(), nodes);
  return nodes;
}

bool DistributionPolicy::SomeNodeHasAll(const Instance& facts) const {
  // The nodes responsible for every row so far.
  std::vector<NodeId> common(NumNodes());
  std::iota(common.begin(), common.end(), NodeId{0});
  std::vector<NodeId> targets;
  for (RelationId r = 0; r < facts.NumRelationIds() && !common.empty(); ++r) {
    const RowsView rows = facts.RowsOf(r);
    for (std::size_t i = 0; i < rows.num_rows && !common.empty(); ++i) {
      targets.clear();
      RouteRow(r, rows.Row(i), rows.arity, targets);
      std::erase_if(common, [&targets](NodeId node) {
        return std::find(targets.begin(), targets.end(), node) ==
               targets.end();
      });
    }
  }
  return !common.empty();
}

std::vector<Instance> DistributeByPolicy(const Instance& instance,
                                         const DistributionPolicy& policy) {
  std::vector<Instance> locals(policy.NumNodes());
  std::vector<NodeId> targets;
  for (RelationId r = 0; r < instance.NumRelationIds(); ++r) {
    const RowsView rows = instance.RowsOf(r);
    for (std::size_t i = 0; i < rows.num_rows; ++i) {
      targets.clear();
      policy.RouteRow(r, rows.Row(i), rows.arity, targets);
      for (const NodeId node : targets) {
        locals[node].InsertRow(r, rows.Row(i), rows.arity);
      }
    }
  }
  return locals;
}

}  // namespace lamp
