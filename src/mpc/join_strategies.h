#ifndef LAMP_MPC_JOIN_STRATEGIES_H_
#define LAMP_MPC_JOIN_STRATEGIES_H_

#include <cstdint>
#include <vector>

#include "cq/cq.h"
#include "distribution/policies.h"
#include "mpc/simulator.h"
#include "mpc/stats.h"
#include "relational/instance.h"

/// \file
/// The two single-round binary-join strategies of Example 3.1, each a
/// distribution policy run by RunOneRound:
///
///  (1a) *repartition join* (RepartitionPolicy, a HashPolicy): hash both
///       relations on the shared join variables; O(m/p) load without skew
///       but degrades to O(m) when a join value is heavy;
///  (1b) *fragment-replicate join* (FragmentReplicatePolicy, a GridPolicy;
///       Ullman's drug-interaction pattern, used by DYM-n): split R into
///       sqrt(p) row groups and S into sqrt(p) column groups and give every
///       (row, column) pair a server; O(m/sqrt(p)) load independent of
///       skew.
///
/// The policies are what the parallel-correctness deciders judge and what
/// out-of-process runners (tools/mpc_procs) route with, so both see the
/// routing the simulator runs. Each takes the deciders' universe, which
/// routing never reads.

namespace lamp {

/// Result of a complete MPC execution: the query output plus per-round
/// load statistics.
struct MpcRunResult {
  Instance output;
  RunStats stats;
};

/// Positions (within each of the two body atoms) of the shared join
/// variables of a binary join query.
struct JoinShape {
  std::vector<std::size_t> left_positions;   // In body()[0].
  std::vector<std::size_t> right_positions;  // In body()[1].
};

/// Validates that \p query is a binary join the strategies support (two
/// distinct atoms sharing at least one variable) and returns the
/// join-key positions.
JoinShape AnalyzeBinaryJoin(const ConjunctiveQuery& query);

/// One-round evaluation [Q,P](I) (Section 4.1): deal \p input round-robin
/// over policy.NumNodes() servers, reshuffle it by \p policy (RouteBy) and
/// evaluate \p query on every server.
MpcRunResult RunOneRound(const ConjunctiveQuery& query, const Instance& input,
                         const DistributionPolicy& policy);

/// The policy RepartitionJoin runs: each atom's relation keyed on the
/// positions of the shared join variables (AnalyzeBinaryJoin).
HashPolicy RepartitionPolicy(const ConjunctiveQuery& query,
                             std::size_t num_servers, std::uint64_t seed,
                             std::vector<Value> universe = MakeUniverse(1));

/// The policy FragmentReplicateJoin runs: the first atom's relation on the
/// rows of a g x g grid, g = floor(sqrt(num_servers)), the second's on
/// its columns.
GridPolicy FragmentReplicatePolicy(
    const ConjunctiveQuery& query, std::size_t num_servers,
    std::uint64_t seed, std::vector<Value> universe = MakeUniverse(1));

/// Example 3.1(1a). \p query must be a join of exactly two atoms sharing
/// at least one variable (e.g. H(x,y,z) <- R(x,y), S(y,z)).
MpcRunResult RepartitionJoin(const ConjunctiveQuery& query,
                             const Instance& input, std::size_t num_servers,
                             std::uint64_t seed = 0);

/// Example 3.1(1b). Uses the largest g with g*g <= num_servers and
/// arranges the g*g servers as a grid; the first atom's facts go to a
/// random-but-deterministic row group, the second atom's to a column
/// group. Load O(m/g) regardless of skew.
MpcRunResult FragmentReplicateJoin(const ConjunctiveQuery& query,
                                   const Instance& input,
                                   std::size_t num_servers,
                                   std::uint64_t seed = 0);

}  // namespace lamp

#endif  // LAMP_MPC_JOIN_STRATEGIES_H_
