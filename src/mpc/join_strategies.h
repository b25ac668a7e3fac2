#ifndef LAMP_MPC_JOIN_STRATEGIES_H_
#define LAMP_MPC_JOIN_STRATEGIES_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "cq/cq.h"
#include "mpc/simulator.h"
#include "mpc/stats.h"
#include "relational/instance.h"

/// \file
/// The two single-round binary-join strategies of Example 3.1:
///
///  (1a) *repartition join*: hash both relations on the shared join
///       variables; O(m/p) load without skew but degrades to O(m) when a
///       join value is heavy;
///  (1b) *fragment-replicate join* (Ullman's drug-interaction pattern, used
///       by DYM-n): split R into sqrt(p) row groups and S into sqrt(p)
///       column groups and give every (row, column) pair a server;
///       O(m/sqrt(p)) load independent of skew.

namespace lamp {

/// Result of a complete MPC execution: the query output plus per-round
/// load statistics.
struct MpcRunResult {
  Instance output;
  RunStats stats;
};

/// The repartition key of \p atom on \p shared_vars: the position of the
/// first occurrence of each of those variables in the atom, in the order
/// given. Every shared variable must occur in the atom (checked).
inline std::vector<std::size_t> KeyPositions(
    const Atom& atom, const std::vector<VarId>& shared_vars) {
  std::vector<std::size_t> positions;
  positions.reserve(shared_vars.size());
  for (VarId v : shared_vars) {
    for (std::size_t i = 0; i < atom.terms.size(); ++i) {
      if (atom.terms[i].IsVar() && atom.terms[i].var == v) {
        positions.push_back(i);
        break;
      }
    }
  }
  LAMP_CHECK(positions.size() == shared_vars.size());
  return positions;
}

/// The repartition hash of \p row on its key \p positions: every
/// hash-partitioned MPC step (repartition join, Yannakakis semijoin,
/// cascade step) sends a row to server KeyHash(...) % p, so two rows that
/// agree on the shared variables meet.
inline std::uint64_t KeyHash(const Value* row,
                             const std::vector<std::size_t>& positions,
                             std::uint64_t seed) {
  std::uint64_t h = HashMix(seed);
  for (std::size_t pos : positions) {
    h = HashCombine(h, static_cast<std::uint64_t>(row[pos].v));
  }
  return h;
}

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

/// The exact routing function RepartitionJoin runs, exposed so
/// out-of-process runners (tools/mpc_procs) route byte-identically to
/// the in-process reference. The returned callable is self-contained:
/// it captures no reference to \p query.
MpcSimulator::Router RepartitionRouter(const ConjunctiveQuery& query,
                                       std::size_t num_servers,
                                       std::uint64_t seed);

/// The exact routing function FragmentReplicateJoin runs (grid of
/// g = floor(sqrt(num_servers)) rows x g columns). Self-contained like
/// RepartitionRouter.
MpcSimulator::Router FragmentReplicateRouter(const ConjunctiveQuery& query,
                                             std::size_t num_servers,
                                             std::uint64_t seed);

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
