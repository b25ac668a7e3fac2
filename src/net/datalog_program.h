#ifndef LAMP_NET_DATALOG_PROGRAM_H_
#define LAMP_NET_DATALOG_PROGRAM_H_

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
/// The state only grows and keeps every conclusion, so no node ever
/// recomputes: the heartbeat (also the restart after a crash) continues
/// the node's fixpoint from zero marks, and a delivery continues it from
/// the marks taken before the delivered facts went in
/// (FixpointContinuation), in place over the state.

namespace lamp {

/// Runs \p program distributed over the shared \p schema. The program must
/// outlive this object.
///
/// Negation policy (checked at construction): an unstratifiable program
/// is rejected — the evaluator (FixpointContinuation) aborts naming its
/// negation cycle — since there is no stratified semantics to pipeline.
/// A program with *stratified* negation is accepted with a warning to
/// stderr: the eventual-consistency guarantee of IDB pipelining only
/// covers the monotone (negation-free) part.
class DistributedDatalogProgram : public TransducerProgram {
 public:
  DistributedDatalogProgram(const Schema& schema,
                            const DatalogProgram& program);

  void OnStart(NodeContext& ctx) override;
  void OnReceive(NodeContext& ctx, const Message& message) override;

 private:
  /// Continues the state's fixpoint from \p closed, outputs the IDB rows
  /// past \p closed and broadcasts the rows it derived.
  void ContinueFrom(NodeContext& ctx,
                    const FixpointContinuation::Marks& closed) const;

  std::set<RelationId> idb_;
  FixpointContinuation continuation_;
};

}  // namespace lamp

#endif  // LAMP_NET_DATALOG_PROGRAM_H_
