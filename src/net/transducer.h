#ifndef LAMP_NET_TRANSDUCER_H_
#define LAMP_NET_TRANSDUCER_H_

#include <cstdint>
#include <utility>
#include <vector>

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

class TransducerNetwork;

/// What a program sees and does during a transition. The network runner
/// builds one per transition. State writes (mutable_state, InsertMessage)
/// and Output take effect immediately; only Broadcast is deferred: the
/// runner dispatches the recorded messages after the transition returns.
class NodeContext {
 public:
  /// This node's identity.
  NodeId self() const { return self_; }

  /// |All|: the number of nodes. Programs in the classes A0/A1/A2 — the
  /// network-unaware ("oblivious") ones — must not call this; the runner
  /// aborts if an unaware run does (that is how obliviousness is audited).
  std::size_t NetworkSize() const;

  /// The node's current relational state.
  const Instance& state() const { return state_; }

  /// The node's relational state, for in-place updates (a program that
  /// keeps its state closed under some derivation extends it directly).
  /// Like every state write it must stay a deterministic function of
  /// (state, input).
  Instance& mutable_state() { return state_; }

  /// Emits a fact to the write-only output relation (never retracted).
  /// \p row need only stay valid for the call.
  void Output(transport::RowRef row) {
    output_.InsertRow(row.relation, row.row, row.arity);
  }

  /// Broadcasts a message to every *other* node.
  void Broadcast(Message message) { outgoing_.push_back(std::move(message)); }

  /// The distribution policy, or nullptr for policy-unaware networks.
  /// Policy-aware programs may only query facts over their local active
  /// domain (the runner does not enforce this; programs are ours).
  const DistributionPolicy* policy() const { return policy_; }

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

  /// Outputs every row of \p result (a query's answers), in (relation,
  /// insertion) order.
  void OutputAll(const Instance& result) {
    for (RelationId rel = 0; rel < result.NumRelationIds(); ++rel) {
      const RowsView rows = result.RowsOf(rel);
      for (std::size_t i = 0; i < rows.num_rows; ++i) {
        Output({rel, rows.Row(i), static_cast<std::uint32_t>(rows.arity)});
      }
    }
  }

 private:
  friend class TransducerNetwork;

  NodeContext(NodeId self, std::size_t network_size, Instance& state,
              Instance& output, const DistributionPolicy* policy, bool aware)
      : self_(self),
        network_size_(network_size),
        state_(state),
        output_(output),
        policy_(policy),
        aware_(aware) {}

  NodeId self_;
  std::size_t network_size_;
  Instance& state_;
  Instance& output_;
  const DistributionPolicy* policy_;
  bool aware_;
  std::vector<Message> outgoing_;
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
