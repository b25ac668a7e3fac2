#ifndef LAMP_MAPREDUCE_RECURSIVE_H_
#define LAMP_MAPREDUCE_RECURSIVE_H_

#include <cstdint>

#include "mapreduce/mapreduce.h"
#include "relational/schema.h"

/// \file
/// Transitive closure and recursive Datalog on clusters (Afrati-Ullman,
/// discussed in Section 3.2 of the paper): each fixpoint iteration is one
/// MapReduce job, and the *number of jobs* is the number of
/// synchronization barriers. The two classic strategies trade rounds for
/// communication:
///
///  * linear iteration  TC := TC u (TC |><| E)  — diameter-many jobs,
///    each shuffling O(|TC| + |E|) pairs;
///  * recursive doubling  TC := TC u (TC |><| TC)  — log(diameter) jobs,
///    each shuffling O(|TC|) pairs twice (every closure fact plays both
///    the left and the right role).

namespace lamp {

/// Outcome of an iterative MapReduce transitive-closure computation.
struct RecursiveTcResult {
  Instance closure;               // Facts of the `tc` relation.
  std::size_t jobs = 0;           // MapReduce jobs (= barriers) executed.
  std::size_t pairs_shuffled = 0; // Total key-value pairs over all jobs.
  std::size_t max_group = 0;      // Largest reducer group seen.
};

/// One step of either strategy as a MapReduce job over binary relations:
/// joins \p left rows on their second column with \p right rows on their
/// first column and emits \p out(l[0], r[1]). Keys are the raw join
/// values, so grouping is exact.
MapReduceJob JoinSecondWithFirst(RelationId left, RelationId right,
                                 RelationId out);

/// Linear iteration. \p edge facts are the input graph; results are
/// emitted as \p tc facts (both relations must be binary).
RecursiveTcResult TransitiveClosureLinear(const Schema& schema,
                                          RelationId edge, RelationId tc,
                                          const Instance& edges);

/// Recursive doubling (the "smart" TC of Afrati-Ullman).
RecursiveTcResult TransitiveClosureDoubling(const Schema& schema,
                                            RelationId edge, RelationId tc,
                                            const Instance& edges);

}  // namespace lamp

#endif  // LAMP_MAPREDUCE_RECURSIVE_H_
