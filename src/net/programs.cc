#include "net/programs.h"

#include <set>

#include "common/check.h"
#include "common/subset.h"
#include "cq/eval.h"

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
  for (const Fact& f : query_(ctx.state()).AllFacts()) {
    ctx.Output(f);
  }
}

// ---------------------------------------------------------------------------
// DistinctCompleteProgram
// ---------------------------------------------------------------------------

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

  // C = adom(state). C is distinct-complete for this node when every
  // possible fact over C is in the state (it arrived / was local) or is
  // one we are responsible for (then its absence means it is not in I).
  const std::vector<Value> c = ctx.state().ActiveDomain();

  for (RelationId rel : relations_) {
    const std::size_t arity = schema_.ArityOf(rel);
    if (c.empty() && arity > 0) continue;
    const bool complete = ForEachTuple(
        arity, c.size(), [&](const std::vector<std::size_t>& idx) {
          std::vector<Value> args;
          args.reserve(arity);
          for (std::size_t i = 0; i < arity; ++i) args.push_back(c[idx[i]]);
          const Fact f(rel, std::move(args));
          return ctx.state().Contains(f) ||
                 policy->IsResponsible(ctx.self(), f);
        });
    if (!complete) return;  // Wait for more data.
  }
  // state|C == I|C (Lemma 5.7 applies): safe to output Q(state).
  for (const Fact& f : query_(ctx.state()).AllFacts()) {
    ctx.Output(f);
  }
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
  Instance real;
  std::set<Value> complete;
  for (const Fact& f : ctx.state().AllFacts()) {
    if (f.relation == marker_) {
      complete.insert(f.args[0]);
    } else {
      real.Insert(f);
    }
  }

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
  for (const Fact& f : query_(union_of_complete).AllFacts()) {
    ctx.Output(f);
  }
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
  Instance data;
  for (const Fact& f : ctx.state().AllFacts()) {
    if (f.relation != done_) data.Insert(f);
  }
  for (const Fact& f : query_(data).AllFacts()) {
    ctx.Output(f);
  }
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
  Instance data;
  for (const Fact& f : ctx.state().AllFacts()) {
    if (f.relation != done_ && f.relation != tick_) data.Insert(f);
  }
  for (const Fact& f : query_(data).AllFacts()) {
    ctx.Output(f);
  }
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
        ctx.Output(v.ApplyToAtom(query_.head()));
        return true;
      });
}

// ---------------------------------------------------------------------------
// EconomicalBroadcastProgram
// ---------------------------------------------------------------------------

bool EconomicalBroadcastProgram::IsRelevant(const Fact& fact) const {
  for (const Atom& atom : query_.body()) {
    if (atom.relation != fact.relation ||
        atom.terms.size() != fact.args.size()) {
      continue;
    }
    bool match = true;
    std::vector<bool> bound(query_.NumVars(), false);
    std::vector<Value> binding(query_.NumVars());
    for (std::size_t i = 0; i < atom.terms.size() && match; ++i) {
      const Term& t = atom.terms[i];
      if (t.IsConst()) {
        match = t.constant == fact.args[i];
      } else if (bound[t.var]) {
        match = binding[t.var] == fact.args[i];
      } else {
        bound[t.var] = true;
        binding[t.var] = fact.args[i];
      }
    }
    if (match) return true;
  }
  return false;
}

void EconomicalBroadcastProgram::OnStart(NodeContext& ctx) {
  Message relevant;
  ctx.state().ForEachFact([this, &relevant](const Fact& f) {
    if (IsRelevant(f)) relevant.Append(transport::RowRef::Of(f));
  });
  if (!relevant.empty()) ctx.Broadcast(std::move(relevant));
  EvaluateAndOutput(ctx);
}

void EconomicalBroadcastProgram::OnReceive(NodeContext& ctx,
                                           const Message& message) {
  if (ctx.InsertMessage(message)) EvaluateAndOutput(ctx);
}

void EconomicalBroadcastProgram::EvaluateAndOutput(NodeContext& ctx) {
  for (const Fact& f : Evaluate(query_, ctx.state()).AllFacts()) {
    ctx.Output(f);
  }
}

}  // namespace lamp
