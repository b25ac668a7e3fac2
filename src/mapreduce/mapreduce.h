#ifndef LAMP_MAPREDUCE_MAPREDUCE_H_
#define LAMP_MAPREDUCE_MAPREDUCE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "relational/instance.h"
#include "transport/wire.h"

/// \file
/// The MapReduce formalism of Section 3 of the paper.
///
/// A job is a pair (mu, rho): the map function mu turns each input fact
/// into key-value pairs; pairs are grouped by key; the reduce function rho
/// turns each group into output pairs. A MapReduce *program* is a sequence
/// of jobs; the iterative transitive-closure strategies (recursive.h) run
/// one job per fixpoint step. The paper observes that every MapReduce
/// program is an MPC algorithm — the map phase is the communication phase
/// (the key is the server) and the reduce phase the computation phase.
///
/// A job here is a row router plus a row reducer. The value of every pair
/// is the mapped input row itself, so mu only names the row's keys
/// (64-bit integers), and the shuffle moves borrowed row references, not
/// copies.

namespace lamp {

/// A MapReduce job.
struct MapReduceJob {
  /// mu: appends the keys of one input row to \p keys (a key may repeat;
  /// the row then joins that group once per occurrence).
  using MapFn = std::function<void(transport::RowRef row,
                                   std::vector<std::uint64_t>& keys)>;
  /// rho: consumes one key group — the rows mapped to \p key, in input
  /// order — and inserts its output rows into \p out.
  using ReduceFn =
      std::function<void(std::uint64_t key,
                         std::span<const transport::RowRef> group,
                         Instance& out)>;

  MapFn map;
  ReduceFn reduce;
};

/// Load statistics of one job execution: number of values each reducer
/// (key group) received — the "reducer size" of Das Sarma et al. [27] —
/// and the total number of key-value pairs shuffled (the communication
/// cost of Afrati-Ullman).
struct MapReduceStats {
  std::vector<std::size_t> group_sizes;
  std::size_t pairs_shuffled = 0;

  std::size_t MaxGroupSize() const;
  std::size_t NumGroups() const { return group_sizes.size(); }
};

/// Executes one job on \p input: maps every row in (relation, insertion)
/// order, groups the pairs by key (ascending, each group in map order)
/// and reduces each group into one Instance (duplicate rows merge).
Instance RunJob(const MapReduceJob& job, const Instance& input,
                MapReduceStats* stats = nullptr);

}  // namespace lamp

#endif  // LAMP_MAPREDUCE_MAPREDUCE_H_
