#ifndef LAMP_CQ_EVAL_H_
#define LAMP_CQ_EVAL_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "cq/cq.h"
#include "cq/valuation.h"
#include "relational/instance.h"

/// \file
/// Conjunctive-query evaluation.
///
/// Q(I) is the set of facts derivable by satisfying valuations (Section 2).
/// Evaluation is batch-at-a-time over the columnar storage: body atoms are
/// ordered greedily, each atom becomes one vectorized hash-join level
/// (build-once hash tables keyed on flat column slices of the instance,
/// probed with the whole batch of partial tuples), inequalities filter at
/// the first level where both sides are bound and negated atoms filter the
/// final batch. Enumeration order is the depth-first order the previous
/// tuple-at-a-time matcher produced, so result instances — and every golden
/// digest derived from them — stay byte-identical.

namespace lamp {

/// Visitor for satisfying valuations; return false to stop enumeration.
using ValuationVisitor = std::function<bool(const Valuation&)>;

/// Observability counters of one evaluation (the audit loop relates scan
/// volume to the closed-form load bounds).
struct CqEvalStats {
  /// Rows touched: every row swept into a hash index build plus every
  /// candidate row visited while probing (including hash-collision
  /// mismatches).
  std::size_t rows_scanned = 0;

  CqEvalStats& operator+=(const CqEvalStats& o) {
    rows_scanned += o.rows_scanned;
    return *this;
  }
};

/// Calls \p visit for every total valuation V of \p query with
/// V(body) subseteq \p instance that also satisfies the query's
/// inequalities and negated atoms (negation evaluated against
/// \p instance). Returns false iff the visitor stopped the enumeration.
bool ForEachSatisfyingValuation(const ConjunctiveQuery& query,
                                const Instance& instance,
                                const ValuationVisitor& visit,
                                CqEvalStats* stats = nullptr);

/// Q(I): all facts derived by satisfying valuations.
Instance Evaluate(const ConjunctiveQuery& query, const Instance& instance,
                  CqEvalStats* stats = nullptr);

/// Batch sink for EvaluateIntoBatches: \p rows holds \p count derived head
/// rows of \p arity values each, row-major and contiguous, valid only for
/// the duration of the call.
using RowBatchSink = std::function<void(RelationId relation,
                                        const Value* rows, std::size_t count,
                                        std::size_t arity)>;

/// The rows of a relation whose ids lie in [from, to). Instances only
/// append rows, so the rows inserted between two moments are such a range;
/// `to` past the last row means "to the end".
struct RowRange {
  std::size_t from = 0;
  std::size_t to = static_cast<std::size_t>(-1);
};

/// Streams the derived head rows of Q(I) into \p sink without
/// materialising an intermediate Instance, in blocks (currently up to 256
/// rows per call) in enumeration order: one row per satisfying valuation,
/// duplicates included. The sink must not mutate \p instance (the join
/// pipeline holds borrowed views into its storage).
///
/// \p ranges, when nonempty, holds one RowRange per positive body atom (in
/// body order): atom i then matches only the rows of its relation in
/// ranges[i], so one relation can be read as several views (its old rows
/// and its newest rows, say) without copying them. Negated atoms always
/// read the whole relation.
void EvaluateIntoBatches(const ConjunctiveQuery& query,
                         const Instance& instance, const RowBatchSink& sink,
                         CqEvalStats* stats = nullptr,
                         std::span<const RowRange> ranges = {});

/// Union of Q(I) over the queries of a UCQ (all must share one schema; the
/// caller guarantees compatible head relations if it needs them).
Instance EvaluateUnion(const std::vector<ConjunctiveQuery>& queries,
                       const Instance& instance);

/// Calls \p visit for every *total* valuation of \p query over
/// \p universe — |universe|^#vars assignments; used by the exact deciders
/// of Section 4. Returns false iff the visitor stopped.
bool ForEachValuationOverUniverse(const ConjunctiveQuery& query,
                                  const std::vector<Value>& universe,
                                  const ValuationVisitor& visit);

}  // namespace lamp

#endif  // LAMP_CQ_EVAL_H_
