#include "net/programs.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/subset.h"
#include "cq/eval.h"
#include "distribution/policies.h"

namespace lamp {

// ---------------------------------------------------------------------------
// MonotoneBroadcastProgram
// ---------------------------------------------------------------------------

void MonotoneBroadcastProgram::OnStart(NodeContext& ctx) {
  ctx.BroadcastState();
  EvaluateAndOutput(ctx);
}

void MonotoneBroadcastProgram::OnReceive(NodeContext& ctx,
                                         const Message& message) {
  if (ctx.InsertMessage(message)) EvaluateAndOutput(ctx);
}

void MonotoneBroadcastProgram::EvaluateAndOutput(NodeContext& ctx) {
  ctx.OutputAll(query_(ctx.state()));
}

// ---------------------------------------------------------------------------
// DistinctCompleteProgram
// ---------------------------------------------------------------------------

DistinctCompleteProgram::DistinctCompleteProgram(
    NetQueryFunction query, Schema& schema,
    const std::vector<RelationId>& relations)
    : query_(std::move(query)) {
  for (const RelationId r : relations) {
    const std::size_t arity = schema.ArityOf(r);
    edbs_.push_back(
        {r, schema.AddRelation("__absent_" + schema.NameOf(r), arity), arity});
  }
}

void DistinctCompleteProgram::OnStart(NodeContext& ctx) {
  ctx.BroadcastState();
  TryOutput(ctx);
}

void DistinctCompleteProgram::OnReceive(NodeContext& ctx,
                                        const Message& message) {
  if (ctx.InsertMessage(message)) TryOutput(ctx);
}

void DistinctCompleteProgram::TryOutput(NodeContext& ctx) {
  const DistributionPolicy* policy = ctx.policy();
  LAMP_CHECK_MSG(policy != nullptr,
                 "DistinctCompleteProgram needs a policy-aware network");

  // C = adom(state) without the markers. A fact over C that this node is
  // responsible for and does not hold is not in I (the local database
  // held all of I the node is responsible for); its marker goes out once,
  // and the node keeps it. C is distinct-complete when every fact over C
  // is held, marked absent or this node's responsibility.
  const Instance data = ctx.state().SelectRelations([this](RelationId r) {
    return std::none_of(edbs_.begin(), edbs_.end(),
                        [r](const Edb& edb) { return edb.absent == r; });
  });
  const std::vector<Value> c = data.ActiveDomain();
  Message absences;
  bool complete = true;
  for (const Edb& edb : edbs_) {
    std::vector<Value> row(edb.arity);
    ForEachTuple(edb.arity, c.size(), [&](const std::vector<std::size_t>& idx) {
      for (std::size_t i = 0; i < edb.arity; ++i) row[i] = c[idx[i]];
      if (ctx.state().ContainsRow(edb.relation, row.data(), edb.arity) ||
          ctx.state().ContainsRow(edb.absent, row.data(), edb.arity)) {
        return true;
      }
      if (policy->IsResponsible(ctx.self(), Fact(edb.relation, row))) {
        ctx.mutable_state().InsertRow(edb.absent, row.data(), edb.arity);
        absences.Append({edb.absent, row.data(),
                         static_cast<std::uint32_t>(edb.arity)});
      } else {
        complete = false;  // Wait for the fact or its marker.
      }
      return true;
    });
  }
  if (!absences.empty()) ctx.Broadcast(std::move(absences));
  // state|C == I|C (Lemma 5.7 applies): safe to output Q(state).
  if (complete) ctx.OutputAll(query_(data));
}

// ---------------------------------------------------------------------------
// ComponentProgram
// ---------------------------------------------------------------------------

ComponentProgram::ComponentProgram(NetQueryFunction query, Schema& schema)
    : query_(std::move(query)),
      marker_(schema.AddRelation("__complete", 1)) {}

void ComponentProgram::OnStart(NodeContext& ctx) {
  const DistributionPolicy* policy = ctx.policy();
  LAMP_CHECK_MSG(policy != nullptr,
                 "ComponentProgram needs a policy-aware network");

  // For every value we own (we are responsible for *all* facts containing
  // it — the domain-guided guarantee), broadcast those facts together with
  // the completeness marker as one atomic message.
  const std::vector<Value> adom = ctx.state().ActiveDomain();
  for (Value a : adom) {
    // Ownership test: responsible for a witness fact containing only `a`.
    // Domain-guided policies decide by values, so any fact containing `a`
    // works; use the marker relation itself as the probe.
    if (!policy->IsResponsible(ctx.self(), Fact(marker_, {a.v}))) continue;
    // The marker is unary, so the facts touching `a` are its data plus
    // exactly one marker, its own.
    ctx.mutable_state().InsertRow(marker_, &a, 1);
    Message batch;
    batch.AppendAll(ctx.state().Touching({a}));
    ctx.Broadcast(std::move(batch));
  }
  TryOutput(ctx);
}

void ComponentProgram::OnReceive(NodeContext& ctx, const Message& message) {
  if (ctx.InsertMessage(message)) TryOutput(ctx);
}

void ComponentProgram::TryOutput(NodeContext& ctx) {
  // Split state into real facts and completeness markers.
  const Instance real = ctx.state().SelectRelations(
      [this](RelationId r) { return r != marker_; });
  const RowsView markers = ctx.state().RowsOf(marker_);  // Unary.
  const std::set<Value> complete(markers.data,
                                 markers.data + markers.num_rows);

  // Union of the components whose values are all marked complete; that
  // union is a disjoint-complete subset of I (a union of I-components).
  Instance union_of_complete;
  for (const Instance& component : real.Components()) {
    bool all_complete = true;
    for (Value a : component.ActiveDomain()) {
      if (complete.count(a) == 0) {
        all_complete = false;
        break;
      }
    }
    if (all_complete) union_of_complete.InsertAll(component);
  }
  ctx.OutputAll(query_(union_of_complete));
}

// ---------------------------------------------------------------------------
// CoordinatedBarrierProgram
// ---------------------------------------------------------------------------

CoordinatedBarrierProgram::CoordinatedBarrierProgram(NetQueryFunction query,
                                                     Schema& schema)
    : query_(std::move(query)),
      done_(schema.AddRelation("__done", 1)) {}

void CoordinatedBarrierProgram::OnStart(NodeContext& ctx) {
  // One atomic message: all local data plus our "done" marker. Atomicity
  // makes the marker an honest promise ("you now have everything I had").
  const Value self(static_cast<std::int64_t>(ctx.self()));
  Message batch;
  batch.AppendAll(ctx.state());
  batch.Append({done_, &self, 1});
  ctx.mutable_state().InsertRow(done_, &self, 1);
  ctx.Broadcast(std::move(batch));
  TryOutput(ctx);
}

void CoordinatedBarrierProgram::OnReceive(NodeContext& ctx,
                                          const Message& message) {
  if (ctx.InsertMessage(message)) TryOutput(ctx);
}

void CoordinatedBarrierProgram::TryOutput(NodeContext& ctx) {
  // The barrier: markers from all nodes (the coordination step — this is
  // the call that makes the program non-oblivious).
  if (ctx.state().NumRows(done_) < ctx.NetworkSize()) return;
  ctx.OutputAll(query_(ctx.state().SelectRelations(
      [this](RelationId r) { return r != done_; })));
}

// ---------------------------------------------------------------------------
// FragileCountingBarrierProgram
// ---------------------------------------------------------------------------

FragileCountingBarrierProgram::FragileCountingBarrierProgram(
    NetQueryFunction query, Schema& schema)
    : query_(std::move(query)),
      done_(schema.AddRelation("__done", 1)),
      tick_(schema.AddRelation("__tick", 1)) {}

void FragileCountingBarrierProgram::OnStart(NodeContext& ctx) {
  const Value self(static_cast<std::int64_t>(ctx.self()));
  Message batch;
  batch.AppendAll(ctx.state());
  batch.Append({done_, &self, 1});
  ctx.mutable_state().InsertRow(done_, &self, 1);
  // Tick 0 stands for this node's own barrier message.
  ctx.mutable_state().Insert(Fact(tick_, {0}));
  ctx.Broadcast(std::move(batch));
  TryOutput(ctx);
}

void FragileCountingBarrierProgram::OnReceive(NodeContext& ctx,
                                              const Message& message) {
  bool barrier_message = false;
  for (const transport::RowRef row : message) {
    if (row.relation == done_) barrier_message = true;
  }
  ctx.InsertMessage(message);
  if (barrier_message) {
    // The bug: count *messages*, not distinct markers. Each fresh tick
    // index makes a new fact, so duplicates advance the counter.
    const std::int64_t count =
        static_cast<std::int64_t>(ctx.state().NumRows(tick_));
    ctx.mutable_state().Insert(Fact(tick_, {count}));
  }
  TryOutput(ctx);
}

void FragileCountingBarrierProgram::TryOutput(NodeContext& ctx) {
  if (ctx.state().NumRows(tick_) < ctx.NetworkSize()) return;
  ctx.OutputAll(query_(ctx.state().SelectRelations(
      [this](RelationId r) { return r != done_ && r != tick_; })));
}

// ---------------------------------------------------------------------------
// PolicyAwareNegationProgram
// ---------------------------------------------------------------------------

void PolicyAwareNegationProgram::OnStart(NodeContext& ctx) {
  ctx.BroadcastState();
  TryOutput(ctx);
}

void PolicyAwareNegationProgram::OnReceive(NodeContext& ctx,
                                           const Message& message) {
  if (ctx.InsertMessage(message)) TryOutput(ctx);
}

void PolicyAwareNegationProgram::TryOutput(NodeContext& ctx) {
  const DistributionPolicy* policy = ctx.policy();
  LAMP_CHECK_MSG(policy != nullptr,
                 "PolicyAwareNegationProgram needs a policy-aware network");

  // Match the whole query against the state: the matcher already verifies
  // that the negated facts are absent from the state (a fact in the state
  // is certainly in I); the responsibility test below upgrades absence
  // from "unknown" to "conclusively not in I".
  ForEachSatisfyingValuation(
      query_, ctx.state(), [this, &ctx, policy](const Valuation& v) {
        // The matcher guarantees the negated facts are absent from the
        // state; absence is conclusive only where we are responsible.
        for (const Atom& atom : query_.negated()) {
          const Fact f = v.ApplyToAtom(atom);
          if (!policy->IsResponsible(ctx.self(), f)) return true;
        }
        ctx.Output(transport::RowRef::Of(v.ApplyToAtom(query_.head())));
        return true;
      });
}

// ---------------------------------------------------------------------------
// EconomicalBroadcastProgram
// ---------------------------------------------------------------------------

bool EconomicalBroadcastProgram::IsRelevant(transport::RowRef row) const {
  return std::any_of(
      query_.body().begin(), query_.body().end(), [row](const Atom& atom) {
        return CanBind(atom, row.relation, row.row, row.arity);
      });
}

void EconomicalBroadcastProgram::OnStart(NodeContext& ctx) {
  Message relevant;
  const Instance& state = ctx.state();
  for (RelationId rel = 0; rel < state.NumRelationIds(); ++rel) {
    const RowsView rows = state.RowsOf(rel);
    for (std::size_t i = 0; i < rows.num_rows; ++i) {
      const transport::RowRef row{rel, rows.Row(i),
                                  static_cast<std::uint32_t>(rows.arity)};
      if (IsRelevant(row)) relevant.Append(row);
    }
  }
  if (!relevant.empty()) ctx.Broadcast(std::move(relevant));
  EvaluateAndOutput(ctx);
}

void EconomicalBroadcastProgram::OnReceive(NodeContext& ctx,
                                           const Message& message) {
  if (ctx.InsertMessage(message)) EvaluateAndOutput(ctx);
}

void EconomicalBroadcastProgram::EvaluateAndOutput(NodeContext& ctx) {
  ctx.OutputAll(Evaluate(query_, ctx.state()));
}

}  // namespace lamp
