#ifndef LAMP_NET_PROGRAMS_H_
#define LAMP_NET_PROGRAMS_H_

#include <functional>
#include <vector>

#include "cq/cq.h"
#include "net/transducer.h"
#include "relational/schema.h"

/// \file
/// The coordination-free evaluation strategies of Section 5.2, as concrete
/// transducer programs:
///
///  * MonotoneBroadcastProgram — Example 5.1(1): broadcast everything,
///    output new answers as they become derivable. Correct exactly for
///    monotone queries (class M = F0 = A0).
///  * DistinctCompleteProgram — the Theorem 5.8 strategy for Mdistinct:
///    policy-aware nodes announce the absent facts they are responsible
///    for, and output Q(state) once the local active domain C is
///    *distinct-complete* — every possible fact over C is received, one
///    the node is responsible for, or announced absent.
///  * ComponentProgram — the Theorem 5.12 strategy for Mdisjoint under
///    domain-guided policies: nodes announce per-value completeness and
///    evaluate Q on the union of the components whose values are all
///    complete (every disjoint-complete subset is such a union).
///  * EconomicalBroadcastProgram — the Ketsman-Neven refinement
///    (Section 6): broadcast only facts that unify with some body atom of
///    the query, instead of the whole local database.

namespace lamp {

/// A query as a black box over instances.
using NetQueryFunction = std::function<Instance(const Instance&)>;

/// Example 5.1(1): the naive broadcast strategy for monotone queries.
class MonotoneBroadcastProgram : public TransducerProgram {
 public:
  explicit MonotoneBroadcastProgram(NetQueryFunction query)
      : query_(std::move(query)) {}

  void OnStart(NodeContext& ctx) override;
  void OnReceive(NodeContext& ctx, const Message& message) override;

 private:
  void EvaluateAndOutput(NodeContext& ctx);

  NetQueryFunction query_;
};

/// Theorem 5.8: policy-aware strategy for domain-distinct-monotone
/// queries. Requires the network to pass a policy. A fact over an EDB
/// relation of \p relations is *known* to a node when it is in the state,
/// when the node is responsible for it (then its absence means it is not
/// in I), or when the node holds its absence marker. Each node broadcasts
/// a marker for every fact over adom(state) it is responsible for and
/// does not hold, and again for the new ones whenever adom(state) grows.
/// A node outputs Q(state) once every fact over adom(state) is known (cost
/// |C|^arity per check — suitable for the moderate domains the
/// experiments use).
class DistinctCompleteProgram : public TransducerProgram {
 public:
  /// \p schema is extended with one marker relation "__absent_R" per EDB
  /// relation R, of R's arity: its row a1..ak says R(a1..ak) is not in I.
  DistinctCompleteProgram(NetQueryFunction query, Schema& schema,
                          const std::vector<RelationId>& relations);

  void OnStart(NodeContext& ctx) override;
  void OnReceive(NodeContext& ctx, const Message& message) override;

 private:
  /// An EDB relation and the marker relation of its absent facts.
  struct Edb {
    RelationId relation;
    RelationId absent;
    std::size_t arity;
  };

  /// Broadcasts the absences this node newly knows first-hand, then
  /// outputs Q(state) if adom(state) is distinct-complete.
  void TryOutput(NodeContext& ctx);

  NetQueryFunction query_;
  std::vector<Edb> edbs_;
};

/// Theorem 5.12: per-component strategy for domain-disjoint-monotone
/// queries under a domain-guided policy. Uses a marker relation
/// (registered in the schema as "__complete"/1) to announce "all facts
/// containing value a have been sent", one atomic message per owned
/// value.
class ComponentProgram : public TransducerProgram {
 public:
  /// \p schema is extended with the marker relation.
  ComponentProgram(NetQueryFunction query, Schema& schema);

  void OnStart(NodeContext& ctx) override;
  void OnReceive(NodeContext& ctx, const Message& message) override;

  RelationId marker_relation() const { return marker_; }

 private:
  /// Evaluates Q on the union of complete components of the real state.
  void TryOutput(NodeContext& ctx);

  NetQueryFunction query_;
  RelationId marker_;
};

/// Example 5.4: the per-derivation policy-aware strategy for CQs with
/// negation. A node outputs a derivation as soon as the positive part
/// matches its state and each negated fact is *known absent*: not in the
/// state while the node is responsible for it (so it would have been in
/// the local database if it were in I). Sound for any policy whose
/// horizontal distribution is the induced one; complete when every
/// candidate negated fact has a responsible node (e.g. any domain-guided
/// policy) and the query negates at most one atom per derivation —
/// exactly the open-triangle setting of the paper.
class PolicyAwareNegationProgram : public TransducerProgram {
 public:
  explicit PolicyAwareNegationProgram(const ConjunctiveQuery& query)
      : query_(query) {}

  void OnStart(NodeContext& ctx) override;
  void OnReceive(NodeContext& ctx, const Message& message) override;

 private:
  void TryOutput(NodeContext& ctx);

  const ConjunctiveQuery& query_;
};

/// Example 5.1(2)'s *coordinating* strategy for non-monotone queries: each
/// node broadcasts its data followed by a "done" marker; a node evaluates
/// the query (negation included) only once it has collected the markers of
/// every other node — at that point its state is the full instance, so
/// negation is safe. The barrier requires knowing how many nodes exist:
/// this program reads |All| and therefore lives outside the oblivious
/// classes A_i — exactly the coordination the CALM theorem says
/// non-monotone queries cannot avoid.
class CoordinatedBarrierProgram : public TransducerProgram {
 public:
  /// \p schema is extended with the marker relation "__done"/1 (the value
  /// is the announcing node id).
  CoordinatedBarrierProgram(NetQueryFunction query, Schema& schema);

  void OnStart(NodeContext& ctx) override;
  void OnReceive(NodeContext& ctx, const Message& message) override;

 private:
  void TryOutput(NodeContext& ctx);

  NetQueryFunction query_;
  RelationId done_;
};

/// A deliberately fragile variant of CoordinatedBarrierProgram, used by
/// the fault-injection subsystem (src/fault) as a divergence target:
/// instead of collecting the *set* of done markers it counts received
/// barrier messages in a scratch relation ("__tick"/1). On an
/// exactly-once network the count equals the number of distinct peers, so
/// the program is correct on every fault-free schedule; but a duplicated
/// barrier message (or one retransmitted after a crash) inflates the
/// count and releases the barrier before the state is complete — the
/// canonical at-least-once-delivery bug, made observable: the query runs
/// on a partial instance and non-monotone queries emit wrong facts.
class FragileCountingBarrierProgram : public TransducerProgram {
 public:
  /// \p schema is extended with "__done"/1 and "__tick"/1.
  FragileCountingBarrierProgram(NetQueryFunction query, Schema& schema);

  void OnStart(NodeContext& ctx) override;
  void OnReceive(NodeContext& ctx, const Message& message) override;

 private:
  void TryOutput(NodeContext& ctx);

  NetQueryFunction query_;
  RelationId done_;
  RelationId tick_;
};

/// Ketsman-Neven-style economical broadcast for a CQ: like
/// MonotoneBroadcastProgram but only facts unifying with some body atom
/// of \p query are transmitted.
class EconomicalBroadcastProgram : public TransducerProgram {
 public:
  explicit EconomicalBroadcastProgram(const ConjunctiveQuery& query)
      : query_(query) {}

  void OnStart(NodeContext& ctx) override;
  void OnReceive(NodeContext& ctx, const Message& message) override;

  /// True when \p row can bind some positive body atom of the query
  /// (CanBind: relation, arity, constants and repeated variables).
  bool IsRelevant(transport::RowRef row) const;

 private:
  void EvaluateAndOutput(NodeContext& ctx);

  const ConjunctiveQuery& query_;
};

}  // namespace lamp

#endif  // LAMP_NET_PROGRAMS_H_
