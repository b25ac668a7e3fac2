#include "mpc/shares_skew.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/hash.h"
#include "mpc/heavy_hitters.h"

namespace lamp {

namespace {

/// The join value's column in the first and in the second atom, once the
/// query is checked to be a binary join.
std::pair<std::size_t, std::size_t> JoinColumns(
    const ConjunctiveQuery& query) {
  AnalyzeBinaryJoin(query);
  return FirstSharedPositions(query.body()[0], query.body()[1]);
}

}  // namespace

SharesSkewPolicy::SharesSkewPolicy(const ConjunctiveQuery& query,
                                   std::size_t num_servers,
                                   const std::set<Value>& heavy,
                                   std::vector<Value> universe,
                                   std::uint64_t seed)
    : DistributionPolicy(num_servers, std::move(universe)),
      columns_(JoinColumns(query)),
      left_(query.body()[0].relation),
      right_(query.body()[1].relation),
      heavy_(heavy.begin(), heavy.end()),
      // Server split: half for the hashed light region (all of it without
      // heavy values), the rest one sub-grid per heavy value.
      p_light_(heavy.empty() ? num_servers
                             : std::max<std::size_t>(1, num_servers / 2)),
      light_salt_(HashMix(seed + 5)),
      sub_grid_(heavy.empty() ? 1
                              : std::max<std::size_t>(
                                    1, (num_servers - p_light_) / heavy.size()),
                left_, right_, {}, seed + 9) {
  const std::size_t heavy_servers =
      std::max<std::size_t>(1, num_servers - p_light_);
  for (std::size_t i = 0; i < heavy_.size(); ++i) {
    base_.push_back(p_light_ + (i * sub_grid_.NumNodes()) % heavy_servers);
  }
}

std::size_t SharesSkewPolicy::HeavyIndex(Value v) const {
  const auto it = std::lower_bound(heavy_.begin(), heavy_.end(), v);
  return it != heavy_.end() && *it == v
             ? static_cast<std::size_t>(it - heavy_.begin())
             : heavy_.size();
}

void SharesSkewPolicy::RouteRow(RelationId relation, const Value* row,
                                std::size_t arity,
                                std::vector<NodeId>& targets) const {
  if (relation != left_ && relation != right_) return;
  const Value v = row[relation == left_ ? columns_.first : columns_.second];
  const std::size_t idx = HeavyIndex(v);
  if (idx == heavy_.size()) {
    targets.push_back(static_cast<NodeId>(
        HashMix(static_cast<std::uint64_t>(v.v) ^ light_salt_) % p_light_));
    return;
  }
  const std::size_t start = targets.size();
  sub_grid_.RouteRow(relation, row, arity, targets);
  for (std::size_t i = start; i < targets.size(); ++i) {
    targets[i] = static_cast<NodeId>((base_[idx] + targets[i]) % NumNodes());
  }
}

SharesSkewPolicy MakeSharesSkewPolicy(const ConjunctiveQuery& query,
                                      const Instance& input,
                                      std::size_t num_servers,
                                      std::uint64_t seed,
                                      std::size_t heavy_threshold) {
  const auto [left_pos, right_pos] = JoinColumns(query);
  const RelationId left = query.body()[0].relation;
  const RelationId right = query.body()[1].relation;
  if (heavy_threshold == 0) {
    const std::size_t m = std::max(input.NumRows(left), input.NumRows(right));
    heavy_threshold = static_cast<std::size_t>(
        static_cast<double>(m) /
        std::sqrt(static_cast<double>(std::max<std::size_t>(num_servers, 1))));
    if (heavy_threshold == 0) heavy_threshold = 1;
  }
  return SharesSkewPolicy(
      query, num_servers,
      JoinHeavyHitters(input, left, left_pos, right, right_pos,
                       heavy_threshold),
      MakeUniverse(1), seed);
}

MpcRunResult SharesSkewJoin(const ConjunctiveQuery& query,
                            const Instance& input, std::size_t num_servers,
                            std::uint64_t seed,
                            std::size_t heavy_threshold) {
  return RunOneRound(query, input,
                     MakeSharesSkewPolicy(query, input, num_servers, seed,
                                          heavy_threshold));
}

}  // namespace lamp
