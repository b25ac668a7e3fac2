#ifndef LAMP_MPC_YANNAKAKIS_H_
#define LAMP_MPC_YANNAKAKIS_H_

#include <cstdint>

#include "cq/acyclic.h"
#include "cq/cq.h"
#include "mpc/join_strategies.h"
#include "relational/schema.h"

/// \file
/// Distributed Yannakakis evaluation for acyclic queries (Section 3.2: the
/// core of GYM, "Generalized Yannakakis in MapReduce").
///
/// Phase 1 (2(n-1) rounds): semi-join reduction along a join tree — an
/// upward sweep (parent := parent semijoin child) followed by a downward
/// sweep (child := child semijoin parent) eliminates all dangling tuples.
/// Phase 2 (n-1 rounds): a cascade of joins over the reduced relations; for
/// full acyclic queries the intermediate results never exceed the final
/// output size, which is the algorithm's point versus a plain cascade.
/// Each semijoin is one MPC round: both relations repartition on their
/// shared variables, every other relation stays put. A row that cannot bind
/// its atom (CanBind: a constant or a repeated variable that does not
/// match) is dropped, so the reduction is full: each relation ends as the
/// projection of the valuations that reach an answer. A single atom has no
/// round; its reduction is a local selection of the rows that bind it.

namespace lamp {

/// Runs Yannakakis on \p query (acyclic, no self-joins, no negation) and
/// returns output + per-round loads (semijoin rounds first, then the join
/// cascade's). \p schema is extended with synthetic intermediate relations.
MpcRunResult YannakakisMpc(Schema& schema, const ConjunctiveQuery& query,
                           const Instance& input, std::size_t num_servers,
                           std::uint64_t seed = 0);

/// The semi-join reduction alone: returns the reduced database (dangling
/// tuples removed) plus the loads of the 2(n-1) semijoin rounds.
MpcRunResult SemijoinReduce(const ConjunctiveQuery& query,
                            const JoinTree& tree, const Instance& input,
                            std::size_t num_servers, std::uint64_t seed = 0);

}  // namespace lamp

#endif  // LAMP_MPC_YANNAKAKIS_H_
