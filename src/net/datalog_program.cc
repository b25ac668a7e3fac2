#include "net/datalog_program.h"

#include <cstdio>
#include <optional>
#include <string>

#include "common/check.h"
#include "datalog/eval.h"
#include "sa/depgraph.h"

namespace lamp {

DistributedDatalogProgram::DistributedDatalogProgram(
    Schema& schema, const DatalogProgram& program)
    : schema_(schema), program_(program), idb_(program.IdbRelations()) {
  if (!program.HasNegation()) {
    // With ADom in the schema, every evaluation derives ADom(v) for each
    // value the state holds; only recomputation reproduces that.
    if (schema.TryIdOf(kADomRelationName) == Interner::kNotFound) {
      continuation_.emplace(schema, program);
    }
    return;
  }
  // Negation is only meaningful under a stratification; without one the
  // evaluator has no semantics to pipeline at all, so refuse outright —
  // with the concrete cycle, courtesy of the static analyzer.
  const sa::DependencyGraph graph(program);
  const std::optional<sa::NegationCycle> cycle = graph.FindNegationCycle();
  if (cycle.has_value()) {
    const std::string message =
        "distributed pipelining requires a stratifiable program: " +
        sa::DescribeNegationCycle(schema, *cycle);
    LAMP_CHECK_MSG(false, message.c_str());
  }
  // Stratified negation is accepted but flagged: pipelining re-derives
  // from whatever subset of the instance has arrived, which is only
  // guaranteed eventually consistent for monotone (negation-free)
  // programs — a node may transiently output facts a later message
  // retracts the support of (CALM; see src/fault's confluence checker).
  std::fprintf(stderr,
               "[lamp.net] warning: program uses stratified negation; "
               "distributed pipelining is only eventually consistent for "
               "its monotone (negation-free) part\n");
}

void DistributedDatalogProgram::OnStart(NodeContext& ctx) {
  // Share the local base facts, then derive and share conclusions.
  ctx.BroadcastState();
  DeriveAndShare(ctx);
}

void DistributedDatalogProgram::OnReceive(NodeContext& ctx,
                                          const Message& message) {
  if (!continuation_.has_value()) {
    if (ctx.InsertMessage(message)) DeriveAndShare(ctx);
    return;
  }
  // The state is closed under the program (the heartbeat evaluated it and
  // every delivery since continued it), so only the facts new to it can
  // lead anywhere new.
  Instance& state = ctx.mutable_state();
  const FixpointContinuation::Marks closed = FixpointContinuation::Mark(state);
  if (!ctx.InsertMessage(message)) return;
  const FixpointContinuation::Marks delivered =
      FixpointContinuation::Mark(state);
  continuation_->Continue(state, closed);

  // Every new IDB fact is output; only the derived ones are news to the
  // other nodes.
  Message fresh;
  Fact fact;
  for (RelationId rel = 0; rel < state.RelationBound(); ++rel) {
    const RowsView rows = state.RowsOf(rel);
    const auto arity = static_cast<std::uint32_t>(rows.arity);
    const bool is_idb = idb_.count(rel) > 0;
    const std::size_t first_derived =
        rel < delivered.size() ? delivered[rel] : 0;
    for (std::size_t i = rel < closed.size() ? closed[rel] : 0;
         i < rows.num_rows; ++i) {
      if (is_idb) {
        fact.relation = rel;
        fact.args.assign(rows.Row(i), rows.Row(i) + arity);
        ctx.Output(fact);
      }
      if (i >= first_derived) fresh.Append({rel, rows.Row(i), arity});
    }
  }
  if (!fresh.empty()) ctx.Broadcast(std::move(fresh));
}

void DistributedDatalogProgram::DeriveAndShare(NodeContext& ctx) {
  // The state is the node's knowledge: EDB shards plus facts (base or
  // derived) received from others. Monotonicity makes deriving from this
  // mixture sound.
  const Instance everything =
      EvaluateProgram(schema_, program_, ctx.state());
  Instance& state = ctx.mutable_state();
  Message fresh;
  everything.ForEachFact([&](const Fact& f) {
    if (idb_.count(f.relation) > 0) ctx.Output(f);
    if (state.Insert(f)) fresh.Append(transport::RowRef::Of(f));
  });
  if (!fresh.empty()) ctx.Broadcast(std::move(fresh));
}

}  // namespace lamp
