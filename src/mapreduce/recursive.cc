#include "mapreduce/recursive.h"

#include <algorithm>

#include "common/check.h"

namespace lamp {

MapReduceJob JoinSecondWithFirst(RelationId left, RelationId right,
                                 RelationId out) {
  MapReduceJob job;
  job.map = [left, right](transport::RowRef row,
                          std::vector<std::uint64_t>& keys) {
    if (row.relation == left) {
      keys.push_back(static_cast<std::uint64_t>(row.row[1].v));
    }
    if (row.relation == right) {
      keys.push_back(static_cast<std::uint64_t>(row.row[0].v));
    }
  };
  // The group is split into its join sides once, each in group order, so
  // the nested loop emits O(lefts × rights) rows in (left, right) order.
  job.reduce = [left, right, out](std::uint64_t key,
                                  std::span<const transport::RowRef> group,
                                  Instance& output) {
    std::vector<const Value*> lefts;
    std::vector<const Value*> rights;
    for (const transport::RowRef& row : group) {
      if (row.relation == left &&
          static_cast<std::uint64_t>(row.row[1].v) == key) {
        lefts.push_back(row.row);
      }
      if (row.relation == right &&
          static_cast<std::uint64_t>(row.row[0].v) == key) {
        rights.push_back(row.row);
      }
    }
    for (const Value* l : lefts) {
      for (const Value* r : rights) {
        const Value derived[2] = {l[0], r[1]};
        output.InsertRow(out, derived, 2);
      }
    }
  };
  return job;
}

namespace {

void Accumulate(const MapReduceStats& stats, RecursiveTcResult& result) {
  result.pairs_shuffled += stats.pairs_shuffled;
  result.max_group = std::max(result.max_group, stats.MaxGroupSize());
}

}  // namespace

RecursiveTcResult TransitiveClosureLinear(const Schema& schema,
                                          RelationId edge, RelationId tc,
                                          const Instance& edges) {
  LAMP_CHECK(schema.ArityOf(edge) == 2 && schema.ArityOf(tc) == 2);
  RecursiveTcResult result;
  // TC starts as a copy of the edges.
  const RowsView edge_rows = edges.RowsOf(edge);
  result.closure.InsertRows(tc, edge_rows.data, edge_rows.num_rows,
                            edge_rows.arity);

  const MapReduceJob step = JoinSecondWithFirst(tc, edge, tc);
  // One persistent job input, extended with each round's new closure rows
  // — the same rows InsertAll appends to the closure, in the same order —
  // instead of re-copying edges + closure every round.
  Instance input = edges;
  input.InsertAll(result.closure);
  while (true) {
    MapReduceStats stats;
    const Instance derived = RunJob(step, input, &stats);
    ++result.jobs;
    Accumulate(stats, result);
    // Each closure row that is new is also new for (and mirrored into)
    // the job input — `input` is edges ∪ closure with closure rows in
    // closure insertion order.
    const RowsView dv = derived.RowsOf(tc);
    if (result.closure.InsertRowsInto(tc, dv.data, dv.num_rows, dv.arity,
                                      input) == 0) {
      break;
    }
  }
  return result;
}

RecursiveTcResult TransitiveClosureDoubling(const Schema& schema,
                                            RelationId edge, RelationId tc,
                                            const Instance& edges) {
  LAMP_CHECK(schema.ArityOf(edge) == 2 && schema.ArityOf(tc) == 2);
  RecursiveTcResult result;
  const RowsView edge_rows = edges.RowsOf(edge);
  result.closure.InsertRows(tc, edge_rows.data, edge_rows.num_rows,
                            edge_rows.arity);

  const MapReduceJob step = JoinSecondWithFirst(tc, tc, tc);
  while (true) {
    MapReduceStats stats;
    const Instance derived = RunJob(step, result.closure, &stats);
    ++result.jobs;
    Accumulate(stats, result);
    const RowsView dv = derived.RowsOf(tc);
    if (result.closure.InsertRows(tc, dv.data, dv.num_rows, dv.arity) == 0) {
      break;
    }
  }
  return result;
}

}  // namespace lamp
