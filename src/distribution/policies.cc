#include "distribution/policies.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/hash.h"

namespace lamp {

void FinitePolicy::Assign(NodeId node, const Fact& fact) {
  LAMP_CHECK(node < NumNodes());
  responsible_[fact].insert(node);
}

void FinitePolicy::RouteRow(RelationId relation, const Value* row,
                            std::size_t arity,
                            std::vector<NodeId>& targets) const {
  const auto it =
      responsible_.find(Fact(relation, std::vector<Value>(row, row + arity)));
  if (it != responsible_.end()) {
    targets.insert(targets.end(), it->second.begin(), it->second.end());
  }
}

void HashPolicy::SetKey(RelationId relation, std::vector<std::size_t> columns) {
  if (keys_.size() <= relation) keys_.resize(relation + 1);
  keys_[relation] = std::move(columns);
}

void HashPolicy::RouteRow(RelationId relation, const Value* row, std::size_t,
                          std::vector<NodeId>& targets) const {
  if (const std::vector<std::size_t>* key = KeyOf(relation)) {
    targets.push_back(
        static_cast<NodeId>(KeyHash(row, *key, seed_) % NumNodes()));
  }
}

GridPolicy::GridPolicy(std::size_t num_nodes, RelationId row_relation,
                       RelationId column_relation,
                       std::vector<Value> universe, std::uint64_t seed)
    : DistributionPolicy(num_nodes, std::move(universe)),
      row_relation_(row_relation),
      column_relation_(column_relation),
      side_(static_cast<std::size_t>(
          std::floor(std::sqrt(static_cast<double>(num_nodes)) + 1e-9))),
      salt_(HashMix(seed)) {
  LAMP_CHECK(side_ >= 1);
}

void GridPolicy::RouteRow(RelationId relation, const Value* row,
                          std::size_t arity,
                          std::vector<NodeId>& targets) const {
  if (relation == row_relation_) {
    const std::size_t r = Group(relation, row, arity);
    for (std::size_t c = 0; c < side_; ++c) {
      targets.push_back(static_cast<NodeId>(r * side_ + c));
    }
  } else if (relation == column_relation_) {
    const std::size_t c = Group(relation, row, arity);
    for (std::size_t r = 0; r < side_; ++r) {
      targets.push_back(static_cast<NodeId>(r * side_ + c));
    }
  }
}

RangePolicy::RangePolicy(std::vector<Value> universe,
                         RelationId keyed_relation, std::size_t column,
                         std::vector<std::int64_t> bounds)
    : DistributionPolicy(bounds.size() + 1, std::move(universe)),
      keyed_relation_(keyed_relation),
      column_(column),
      bounds_(std::move(bounds)) {
  LAMP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void RangePolicy::RouteRow(RelationId relation, const Value* row,
                           std::size_t arity,
                           std::vector<NodeId>& targets) const {
  if (relation != keyed_relation_) {  // Broadcast.
    for (NodeId node = 0; node < NumNodes(); ++node) targets.push_back(node);
    return;
  }
  LAMP_CHECK(column_ < arity);
  // Number of bounds <= key gives the bucket index.
  targets.push_back(static_cast<NodeId>(
      std::upper_bound(bounds_.begin(), bounds_.end(), row[column_].v) -
      bounds_.begin()));
}

std::vector<Value> MakeUniverse(std::size_t n) {
  std::vector<Value> u;
  u.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    u.emplace_back(static_cast<std::int64_t>(i));
  }
  return u;
}

}  // namespace lamp
