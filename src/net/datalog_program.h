#ifndef LAMP_NET_DATALOG_PROGRAM_H_
#define LAMP_NET_DATALOG_PROGRAM_H_

#include <optional>
#include <set>

#include "datalog/eval.h"
#include "datalog/program.h"
#include "net/transducer.h"

/// \file
/// Declarative networking (the Section 5 motivation [13, 41]): running a
/// Datalog program itself as the node program of a transducer network.
///
/// Unlike MonotoneBroadcastProgram — which ships raw EDB facts and
/// re-evaluates the query from scratch — DistributedDatalogProgram
/// pipelines *derived* facts: a node's state is its fixpoint of the
/// program over everything it knows, and it broadcasts only the facts
/// that are new to it (EDB and IDB alike). For monotone (negation-free)
/// programs this is eventually consistent on every schedule, and IDB
/// pipelining lets nodes start from each other's conclusions instead of
/// re-deriving them.
///
/// The state only grows, so a negation-free program never withdraws a
/// conclusion: a delivery *continues* the node's fixpoint from the facts
/// that are new to it (FixpointContinuation), in place over the state,
/// instead of recomputing it. The heartbeat (also the restart after a
/// volatile crash) evaluates the whole state. Programs with negation, and
/// schemas with the built-in ADom relation (which EvaluateProgram derives
/// for every value the state holds), recompute on every delivery.

namespace lamp {

/// Runs \p program distributed. \p schema is the shared schema (extended
/// with the engine's delta relations).
///
/// Negation policy (checked at construction via sa/depgraph.h): an
/// unstratifiable program is rejected with its negation-cycle witness —
/// there is no stratified semantics to pipeline. A program with
/// *stratified* negation is accepted with a warning to stderr: the
/// eventual-consistency guarantee of IDB pipelining only covers the
/// monotone (negation-free) part.
class DistributedDatalogProgram : public TransducerProgram {
 public:
  DistributedDatalogProgram(Schema& schema, const DatalogProgram& program);

  void OnStart(NodeContext& ctx) override;
  void OnReceive(NodeContext& ctx, const Message& message) override;

 private:
  /// Derives everything derivable from the state, outputs IDB facts, and
  /// broadcasts facts not previously known to this node.
  void DeriveAndShare(NodeContext& ctx);

  Schema& schema_;
  const DatalogProgram& program_;
  std::set<RelationId> idb_;
  /// Set unless the program must recompute on every delivery.
  std::optional<FixpointContinuation> continuation_;
};

}  // namespace lamp

#endif  // LAMP_NET_DATALOG_PROGRAM_H_
