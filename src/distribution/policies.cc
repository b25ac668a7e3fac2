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

bool FinitePolicy::IsResponsible(NodeId node, const Fact& fact) const {
  auto it = responsible_.find(fact);
  return it != responsible_.end() && it->second.count(node) > 0;
}

void HashPolicy::SetKey(RelationId relation, std::vector<std::size_t> columns) {
  if (keys_.size() <= relation) keys_.resize(relation + 1);
  keys_[relation] = std::move(columns);
}

bool HashPolicy::IsResponsible(NodeId node, const Fact& fact) const {
  const std::vector<std::size_t>* key = KeyOf(fact.relation);
  if (key == nullptr) return false;
  for (std::size_t col : *key) LAMP_CHECK(col < fact.args.size());
  return KeyHash(fact.args.data(), *key, seed_) % NumNodes() == node;
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

bool GridPolicy::IsResponsible(NodeId node, const Fact& fact) const {
  if (node >= side_ * side_) return false;
  const Value* row = fact.args.data();
  if (fact.relation == row_relation_) {
    return node / side_ == Group(fact.relation, row, fact.args.size());
  }
  if (fact.relation == column_relation_) {
    return node % side_ == Group(fact.relation, row, fact.args.size());
  }
  return false;
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

bool RangePolicy::IsResponsible(NodeId node, const Fact& fact) const {
  if (fact.relation != keyed_relation_) return true;  // Broadcast.
  LAMP_CHECK(column_ < fact.args.size());
  const std::int64_t key = fact.args[column_].v;
  // Number of bounds <= key gives the bucket index.
  const auto bucket = static_cast<std::size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), key) -
      bounds_.begin());
  return bucket == node;
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
