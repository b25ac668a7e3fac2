#include "net/datalog_program.h"

#include <cstdio>

namespace lamp {

DistributedDatalogProgram::DistributedDatalogProgram(
    const Schema& schema, const DatalogProgram& program)
    : idb_(program.IdbRelations()), continuation_(schema, program) {
  if (!program.HasNegation()) return;
  // Stratified negation is accepted but flagged: pipelining derives from
  // whatever subset of the instance has arrived, which is only guaranteed
  // eventually consistent for monotone (negation-free) programs — a node
  // may transiently output facts a later message retracts the support of
  // (CALM; see src/fault's confluence checker).
  std::fprintf(stderr,
               "[lamp.net] warning: program uses stratified negation; "
               "distributed pipelining is only eventually consistent for "
               "its monotone (negation-free) part\n");
}

void DistributedDatalogProgram::OnStart(NodeContext& ctx) {
  // Share the local base facts, then derive and share conclusions. The
  // state is the node's knowledge — EDB shards plus whatever survived a
  // crash — and is not known to be closed, so every row counts as new.
  ctx.BroadcastState();
  ContinueFrom(ctx, {});
}

void DistributedDatalogProgram::OnReceive(NodeContext& ctx,
                                          const Message& message) {
  // The state is closed under the program (the heartbeat continued it from
  // zero marks and every delivery since continued it), so only the facts
  // new to it can lead anywhere new.
  const FixpointContinuation::Marks closed =
      FixpointContinuation::Mark(ctx.state());
  if (ctx.InsertMessage(message)) ContinueFrom(ctx, closed);
}

void DistributedDatalogProgram::ContinueFrom(
    NodeContext& ctx, const FixpointContinuation::Marks& closed) const {
  Instance& state = ctx.mutable_state();
  const FixpointContinuation::Marks given = FixpointContinuation::Mark(state);
  continuation_.Continue(state, closed);

  // Every IDB row past the marks is output; only the rows the continuation
  // appended are news to the other nodes.
  Message fresh;
  for (RelationId rel = 0; rel < state.NumRelationIds(); ++rel) {
    const RowsView rows = state.RowsOf(rel);
    const auto arity = static_cast<std::uint32_t>(rows.arity);
    const bool is_idb = idb_.count(rel) > 0;
    const std::size_t first_derived = rel < given.size() ? given[rel] : 0;
    for (std::size_t i = rel < closed.size() ? closed[rel] : 0;
         i < rows.num_rows; ++i) {
      const transport::RowRef row{rel, rows.Row(i), arity};
      if (is_idb) ctx.Output(row);
      if (i >= first_derived) fresh.Append(row);
    }
  }
  if (!fresh.empty()) ctx.Broadcast(std::move(fresh));
}

}  // namespace lamp
