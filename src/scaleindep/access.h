#ifndef LAMP_SCALEINDEP_ACCESS_H_
#define LAMP_SCALEINDEP_ACCESS_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "cq/cq.h"
#include "relational/instance.h"

/// \file
/// Scale independence / bounded query evaluation (Fan-Geerts-Libkin and
/// follow-ups, discussed in Section 6 of the paper): some queries "require
/// only a relatively small subset of the data whose size is determined by
/// the structure of the query and the access methods rather than by the
/// size of the data".
///
/// An *access constraint* R(P -> N) promises that for any fixed values of
/// the positions in P, at most N tuples of R match, and that they can be
/// retrieved by an index lookup. A CQ is *boundedly evaluable* under an
/// access schema when a plan exists that starts from the query's
/// constants (and parameters) and reaches every atom through constrained
/// accesses only — then the number of tuples ever touched is bounded by a
/// product of the constraints' bounds, independent of |I|.

namespace lamp {

/// R(P -> N).
struct AccessConstraint {
  RelationId relation = 0;
  std::vector<std::size_t> input_positions;  // Sorted, may be empty (scan
                                             // of a relation of size <= N).
  std::size_t bound = 0;
};

/// A set of access constraints.
class AccessSchema {
 public:
  void Add(AccessConstraint constraint);
  const std::vector<AccessConstraint>& constraints() const {
    return constraints_;
  }

 private:
  std::vector<AccessConstraint> constraints_;
};

/// One step of a bounded plan: fetch \p atom_index via the (copied)
/// constraint, whose input positions are bound at that point.
struct PlanStep {
  std::size_t atom_index = 0;
  AccessConstraint constraint;
};

/// The result of boundedness analysis.
struct BoundedPlan {
  bool bounded = false;
  std::vector<PlanStep> steps;       // In execution order.
  /// Upper bound on tuples fetched: sum over steps of the product of
  /// the bounds up to and including that step (each step runs once per
  /// partial binding of the earlier steps).
  double worst_case_fetches = 0.0;
};

/// Greedy plan construction: variables bound so far start with the
/// query's constants (every constant position counts as bound); a step is
/// possible when some constraint's input positions are all bound for an
/// unplanned atom; each step binds the atom's remaining variables. The
/// greedy strategy is complete for this notion of plan (binding more
/// variables never hurts).
BoundedPlan PlanBoundedEvaluation(const ConjunctiveQuery& query,
                                  const AccessSchema& schema);

/// Executes a bounded plan, counting every tuple fetched. Aborts if the
/// instance violates a constraint used by the plan (the access schema is
/// a data promise). The query's inequalities are applied; negation is not
/// supported.
struct BoundedEvalResult {
  Instance output;
  std::size_t tuples_fetched = 0;
};
BoundedEvalResult BoundedEvaluate(const ConjunctiveQuery& query,
                                  const BoundedPlan& plan,
                                  const Instance& instance);

}  // namespace lamp

#endif  // LAMP_SCALEINDEP_ACCESS_H_
