#ifndef LAMP_MPC_SHARES_SKEW_H_
#define LAMP_MPC_SHARES_SKEW_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "cq/cq.h"
#include "mpc/join_strategies.h"

/// \file
/// SharesSkew (Afrati-Stasinopoulos-Ullman-Vasilakopoulos, cited in
/// Section 3.1): a *one-round* generalization of Shares that handles
/// heavy hitters by "distinguishing tuples that are heavy hitters" —
/// each heavy join value gets its own residual grid, all within the same
/// communication round.
///
/// Implemented for the binary join H <- R(x,y), S(y,z) (the shape the
/// paper's Example 3.1 analyzes): the server pool is split into a hashed
/// region for light join values and one fragment-replicate sub-grid per
/// heavy value; every tuple is routed in the single round either to its
/// hash bucket or to its heavy sub-grid. Load drops from the
/// repartition join's O(heavy-degree) to O(m/sqrt(p_b)) per heavy value.

namespace lamp {

/// The SharesSkew distribution policy of a two-atom join without
/// self-joins. A fact's join value v is its value at the atoms' first
/// shared variable (the first such position of the first atom). A light v
/// hashes the fact to one of the first p_light nodes; the facts of a heavy
/// v meet in a fragment-replicate sub-grid of their own (a GridPolicy over
/// p_b nodes, shifted to the value's first node). p_light is p without
/// heavy values, else max(1, p/2); each of the h heavy values gets
/// p_b = max(1, (p - p_light)/h) nodes. Other relations go to no node.
class SharesSkewPolicy : public DistributionPolicy {
 public:
  SharesSkewPolicy(const ConjunctiveQuery& query, std::size_t num_servers,
                   const std::set<Value>& heavy, std::vector<Value> universe,
                   std::uint64_t seed = 0);

  void RouteRow(RelationId relation, const Value* row, std::size_t arity,
                std::vector<NodeId>& targets) const override;

 private:
  /// The index of \p v in heavy_, or heavy_.size() when v is light.
  std::size_t HeavyIndex(Value v) const;

  /// The join value's column in the first and in the second atom.
  std::pair<std::size_t, std::size_t> columns_;
  RelationId left_;
  RelationId right_;
  std::vector<Value> heavy_;       // Sorted.
  std::vector<std::size_t> base_;  // First node of each heavy sub-grid.
  std::size_t p_light_;
  std::uint64_t light_salt_;  // HashMix(seed + 5).
  GridPolicy sub_grid_;       // p_b nodes, seed + 9.
};

/// The policy SharesSkewJoin runs on \p input: its heavy values are the
/// join values more frequent than \p heavy_threshold in either atom's join
/// column (0 means m/sqrt(p), m the larger relation's size).
SharesSkewPolicy MakeSharesSkewPolicy(const ConjunctiveQuery& query,
                                      const Instance& input,
                                      std::size_t num_servers,
                                      std::uint64_t seed = 0,
                                      std::size_t heavy_threshold = 0);

/// One-round skew-aware join: RunOneRound under MakeSharesSkewPolicy.
MpcRunResult SharesSkewJoin(const ConjunctiveQuery& query,
                            const Instance& input, std::size_t num_servers,
                            std::uint64_t seed = 0,
                            std::size_t heavy_threshold = 0);

}  // namespace lamp

#endif  // LAMP_MPC_SHARES_SKEW_H_
