#ifndef LAMP_SA_PLAN_REWRITE_H_
#define LAMP_SA_PLAN_REWRITE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "cq/cq.h"
#include "sa/plan/estimate.h"

/// \file
/// Logical rewrites the planner applies before costing (stage two of
/// estimates -> rewrites -> cost -> certificate). Rewrites never change
/// the query object — they adjust the *effective* atom cardinalities the
/// cost model sees and record what execution would have to do to realize
/// them:
///
///  * filter pushdown: a constant (or repeated variable) in an atom
///    filters the relation before the shuffle, so routing moves only the
///    selected tuples;
///  * semi-join reducer: when one side of a join is much larger than the
///    domain of the other, shipping the small side's join keys first
///    (a Bloom/IN-list pre-pass) shrinks the big side before the shuffle;
///  * cross-product detection: disconnected body components have no join
///    key to route on — every one-round strategy degenerates to
///    broadcast. Detected here, surfaced as a certificate hazard, and
///    warned on by the lamp_lint cross-product pass.

namespace lamp::sa::plan {

enum class RewriteKind {
  kFilterPushdown,
  kSemiJoinReducer,
  kCrossProduct,
};

std::string_view RewriteKindName(RewriteKind kind);

/// One applied rewrite. For kCrossProduct, `atom` is the first atom of
/// the second component and before/after are both the query's total size
/// (nothing shrinks; it is a hazard marker).
struct Rewrite {
  RewriteKind kind = RewriteKind::kFilterPushdown;
  std::size_t atom = 0;        // Target body atom index.
  std::string description;
  double before = 0.0;         // Effective cardinality before.
  double after = 0.0;          // Effective cardinality after.
};

/// Applies all rewrites in a fixed order (pushdowns, then reducers, then
/// cross-product detection), mutating the atoms' `effective` sizes and
/// returning the applied list.
std::vector<Rewrite> ApplyRewrites(const ConjunctiveQuery& query,
                                   const Estimator& estimator,
                                   std::vector<AtomEstimate>& atoms);

}  // namespace lamp::sa::plan

#endif  // LAMP_SA_PLAN_REWRITE_H_
