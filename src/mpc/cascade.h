#ifndef LAMP_MPC_CASCADE_H_
#define LAMP_MPC_CASCADE_H_

#include <cstdint>

#include "cq/cq.h"
#include "mpc/join_strategies.h"
#include "relational/schema.h"

/// \file
/// Multi-round evaluation by a cascade of binary hash joins
/// (Example 3.1(2): the two-round triangle R |x| S then |x| T).
///
/// Round i is a two-atom conjunctive query, [prev, next atom], run by the
/// cq engine under a hash repartition on the variables the two share
/// (KeyHash): prev is the first atom in round 1 and the previous round's
/// intermediate after it. A row is shipped for an atom only when it can
/// bind that atom (constants, repeated variables); relations needed in
/// later rounds stay put (self-routing, which is not communication). An
/// intermediate round's head is the next intermediate, whose columns are
/// the variables bound so far; the last round evaluates the query's own
/// head and inequalities. The number of rounds is #atoms - 1 (one for a
/// single atom); intermediate results can exceed the final output (the
/// motivation for Yannakakis/GYM in Section 3.2).

namespace lamp {

/// Evaluates \p query (no negation; inequalities applied at the end) by a
/// left-deep cascade. Atoms are greedily reordered so that every join step
/// shares at least one variable (checked error for cartesian steps).
/// \p schema is extended with one synthetic relation per intermediate
/// (#atoms - 2 of them).
MpcRunResult CascadeJoin(Schema& schema, const ConjunctiveQuery& query,
                         const Instance& input, std::size_t num_servers,
                         std::uint64_t seed = 0);

}  // namespace lamp

#endif  // LAMP_MPC_CASCADE_H_
