#include "automata/streaming_ops.h"

#include <algorithm>

#include "common/check.h"

namespace lamp {

namespace {

/// Keys a row of \p r by its value at \p r_column and a row of \p s by
/// its value at \p s_column (raw values as keys); other relations are
/// dropped.
MapReduceJob::MapFn MapByColumns(RelationId r, std::size_t r_column,
                                 RelationId s, std::size_t s_column) {
  return [r, r_column, s, s_column](transport::RowRef row,
                                    std::vector<std::uint64_t>& keys) {
    if (row.relation == r) {
      LAMP_CHECK(r_column < row.arity);
      keys.push_back(static_cast<std::uint64_t>(row.row[r_column].v));
    }
    if (row.relation == s) {
      LAMP_CHECK(s_column < row.arity);
      keys.push_back(static_cast<std::uint64_t>(row.row[s_column].v));
    }
  };
}

/// Keys every row of \p rel to the one group 0.
MapReduceJob::MapFn MapAllOf(RelationId rel) {
  return [rel](transport::RowRef row, std::vector<std::uint64_t>& keys) {
    if (row.relation == rel) keys.push_back(0);
  };
}

/// Identity output action for the matched fact.
void EmitWholeFact(Transition& t, const Schema& schema, RelationId rel) {
  t.output_relation = rel;
  for (std::size_t i = 0; i < schema.ArityOf(rel); ++i) {
    t.output_terms.push_back(OutputTerm::Position(i));
  }
}

}  // namespace

MapReduceJob::ReduceFn AutomatonReducer(RegisterAutomaton automaton) {
  return [automaton = std::move(automaton)](
             std::uint64_t, std::span<const transport::RowRef> group,
             Instance& out) {
    std::vector<Fact> sorted;
    sorted.reserve(group.size());
    for (const transport::RowRef& row : group) {
      sorted.emplace_back(row.relation,
                          std::vector<Value>(row.row, row.row + row.arity));
    }
    std::sort(sorted.begin(), sorted.end());
    for (const Fact& f : automaton.Run(sorted)) out.Insert(f);
  };
}

MapReduceJob StreamingSemijoin(const Schema& schema, RelationId r,
                               std::size_t r_column, RelationId s,
                               std::size_t s_column) {
  LAMP_CHECK_MSG(s < r,
                 "streaming semijoin needs the probe relation sorted first");
  // States: 0 = no S seen, 1 = S seen. Zero registers: within one key
  // group every fact already agrees on the join value.
  RegisterAutomaton automaton(2, 0, 0);
  {
    Transition probe;  // S fact: remember its presence.
    probe.from_state = 0;
    probe.guard.relation = s;
    probe.to_state = 1;
    automaton.AddTransition(probe);
  }
  {
    Transition hit;  // R fact after an S fact: emit.
    hit.from_state = 1;
    hit.guard.relation = r;
    hit.to_state = 1;
    EmitWholeFact(hit, schema, r);
    automaton.AddTransition(hit);
  }

  return {MapByColumns(r, r_column, s, s_column),
          AutomatonReducer(std::move(automaton))};
}

MapReduceJob StreamingAntiSemijoin(const Schema& schema, RelationId r,
                                   std::size_t r_column, RelationId s,
                                   std::size_t s_column) {
  LAMP_CHECK_MSG(
      s < r, "streaming anti-semijoin needs the probe relation sorted first");
  RegisterAutomaton automaton(2, 0, 0);
  {
    Transition probe;
    probe.from_state = 0;
    probe.guard.relation = s;
    probe.to_state = 1;
    automaton.AddTransition(probe);
  }
  {
    Transition miss;  // R fact with no preceding S: emit.
    miss.from_state = 0;
    miss.guard.relation = r;
    miss.to_state = 0;
    EmitWholeFact(miss, schema, r);
    automaton.AddTransition(miss);
  }

  return {MapByColumns(r, r_column, s, s_column),
          AutomatonReducer(std::move(automaton))};
}

MapReduceJob StreamingSelection(const Schema& schema, RelationId r,
                                std::size_t column, Value value) {
  RegisterAutomaton automaton(1, 0, 0);
  Transition match;
  match.from_state = 0;
  match.guard.relation = r;
  match.guard.equals_constant.resize(schema.ArityOf(r));
  LAMP_CHECK(column < schema.ArityOf(r));
  match.guard.equals_constant[column] = value;
  match.to_state = 0;
  EmitWholeFact(match, schema, r);
  automaton.AddTransition(match);

  return {MapAllOf(r), AutomatonReducer(std::move(automaton))};
}

MapReduceJob StreamingProjection(const Schema& schema, RelationId r,
                                 const std::vector<std::size_t>& columns,
                                 RelationId out_rel) {
  LAMP_CHECK(schema.ArityOf(out_rel) == columns.size());
  RegisterAutomaton automaton(1, 0, 0);
  Transition project;
  project.from_state = 0;
  project.guard.relation = r;
  project.to_state = 0;
  project.output_relation = out_rel;
  for (std::size_t col : columns) {
    LAMP_CHECK(col < schema.ArityOf(r));
    project.output_terms.push_back(OutputTerm::Position(col));
  }
  automaton.AddTransition(project);

  return {MapAllOf(r), AutomatonReducer(std::move(automaton))};
}

}  // namespace lamp
