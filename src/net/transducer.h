#ifndef LAMP_NET_TRANSDUCER_H_
#define LAMP_NET_TRANSDUCER_H_

#include <cstdint>
#include <utility>

#include "distribution/policy.h"
#include "relational/instance.h"
#include "transport/wire.h"

/// \file
/// Relational transducer networks (Section 5.1 of the paper).
///
/// Every node runs the same program over its relational state: a local
/// database (its share of the horizontal distribution), auxiliary facts,
/// and a write-only output relation. Nodes communicate by broadcasting
/// *messages* — batches of facts — which can be arbitrarily delayed and
/// reordered but never lost. Policy-aware programs (Section 5.2.2) may
/// additionally query the distribution policy for facts over their local
/// active domain.

namespace lamp {

/// A message: one batch of facts broadcast atomically. (The formal model
/// allows arbitrary message content; batching lets a program send "all my
/// facts about value a" as one unit.) It is a row batch — a relation and
/// arity per fact plus one flat value buffer — the same FactRows a kMessage
/// frame decodes into, so queueing or copying one costs two buffers, not
/// one heap vector per fact. Iterate it as RowRefs; build one with Append
/// (one row) or AppendAll (every row of an instance).
using Message = transport::FactRows;

/// The interface a program uses during a transition. Provided by the
/// network runner. State writes (mutable_state, InsertMessage) and Output
/// take effect immediately; only Broadcast is deferred: the runner
/// dispatches the recorded messages after the transition returns.
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  /// This node's identity.
  virtual NodeId self() const = 0;

  /// |All|: the number of nodes. Programs in the classes A0/A1/A2 — the
  /// network-unaware ("oblivious") ones — must not call this; the runner
  /// aborts if an unaware run does (that is how obliviousness is audited).
  virtual std::size_t NetworkSize() const = 0;

  /// The node's current relational state.
  virtual const Instance& state() const = 0;

  /// The node's relational state, for in-place updates (a program that
  /// keeps its state closed under some derivation extends it directly).
  /// Like every state write it must stay a deterministic function of
  /// (state, input).
  virtual Instance& mutable_state() = 0;

  /// Emits a fact to the write-only output relation (never retracted).
  virtual void Output(const Fact& fact) = 0;

  /// Broadcasts a message to every *other* node.
  virtual void Broadcast(Message message) = 0;

  /// The distribution policy, or nullptr for policy-unaware networks.
  /// Policy-aware programs may only query facts over their local active
  /// domain (the runner does not enforce this; programs are ours).
  virtual const DistributionPolicy* policy() const = 0;

  /// Inserts every fact of \p message into the state; true when any of
  /// them was new.
  bool InsertMessage(const Message& message) {
    Instance& state = mutable_state();
    bool changed = false;
    for (const transport::RowRef row : message) {
      if (state.InsertRow(row.relation, row.row, row.arity)) changed = true;
    }
    return changed;
  }

  /// Broadcasts the whole state as one message (nothing when it is empty).
  void BroadcastState() {
    Message everything;
    everything.AppendAll(state());
    if (!everything.empty()) Broadcast(std::move(everything));
  }
};

/// A transducer program: the transition function every node runs.
/// Implementations must be deterministic functions of (state, input);
/// any per-node scratch data belongs in the relational state.
class TransducerProgram {
 public:
  virtual ~TransducerProgram() = default;

  /// The initial (heartbeat) transition: the local database is already in
  /// the state.
  virtual void OnStart(NodeContext& ctx) = 0;

  /// Delivery of one message.
  virtual void OnReceive(NodeContext& ctx, const Message& message) = 0;
};

}  // namespace lamp

#endif  // LAMP_NET_TRANSDUCER_H_
