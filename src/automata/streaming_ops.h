#ifndef LAMP_AUTOMATA_STREAMING_OPS_H_
#define LAMP_AUTOMATA_STREAMING_OPS_H_

#include "automata/register_automaton.h"
#include "mapreduce/mapreduce.h"
#include "relational/schema.h"

/// \file
/// The semi-join algebra as constant-memory streaming reducers
/// (the expressible fragment of "Distributed streaming with finite
/// memory", Section 3.2).
///
/// Each operator is a MapReduce job whose reducer is a register automaton
/// run once over the key group, *sorted by relation id then arguments* —
/// the sortedness the construction relies on (e.g. the semijoin probe
/// relation arrives before the probed one). Memory per reducer is the
/// automaton's O(1) registers plus the finite state, independent of the
/// group size: that is the model's point, and tests assert the register
/// counts.

namespace lamp {

/// Semijoin R |>< S on R.column == S.column: emits the R facts that have
/// an S partner with the same key. Requires s < r as relation ids (the
/// sorted stream must deliver the S probe before the R facts); the
/// builder checks this.
MapReduceJob StreamingSemijoin(const Schema& schema, RelationId r,
                               std::size_t r_column, RelationId s,
                               std::size_t s_column);

/// Anti-semijoin R |> S: emits the R facts with *no* S partner.
MapReduceJob StreamingAntiSemijoin(const Schema& schema, RelationId r,
                                   std::size_t r_column, RelationId s,
                                   std::size_t s_column);

/// Selection sigma_{column = value}(R) as a single-state automaton (a
/// degenerate job: everything maps to one key).
MapReduceJob StreamingSelection(const Schema& schema, RelationId r,
                                std::size_t column, Value value);

/// Projection pi_{columns}(R) into \p out (duplicates merged by the
/// output Instance).
MapReduceJob StreamingProjection(const Schema& schema, RelationId r,
                                 const std::vector<std::size_t>& columns,
                                 RelationId out);

/// Runs one automaton over each key group of the job input, its rows
/// sorted by relation then arguments as facts, and inserts the emitted
/// facts. Exposed for building custom operators.
MapReduceJob::ReduceFn AutomatonReducer(RegisterAutomaton automaton);

}  // namespace lamp

#endif  // LAMP_AUTOMATA_STREAMING_OPS_H_
