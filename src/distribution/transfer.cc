#include "distribution/transfer.h"

#include <algorithm>
#include <set>
#include <vector>

#include "common/check.h"
#include "cq/minimal.h"
#include "cq/valuation.h"

namespace lamp {

namespace {

/// Fresh values strictly above every constant of both queries.
std::int64_t FreshBase(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
  std::int64_t base = 1;
  for (Value c : a.Constants()) base = std::max(base, c.v + 1);
  for (Value c : b.Constants()) base = std::max(base, c.v + 1);
  return base;
}

}  // namespace

bool Covers(const ConjunctiveQuery& q, const ConjunctiveQuery& q_prime) {
  LAMP_CHECK_MSG(q.negated().empty() && q_prime.negated().empty(),
                 "covers is defined for CQs without negation");

  const std::int64_t fresh = FreshBase(q, q_prime);

  // Outer universe: constants of both queries + one fresh value per
  // variable of Q'.
  std::vector<Value> outer;
  {
    std::set<Value> consts = q.Constants();
    const std::set<Value> more = q_prime.Constants();
    consts.insert(more.begin(), more.end());
    outer.assign(consts.begin(), consts.end());
    for (std::size_t i = 0; i < q_prime.NumVars(); ++i) {
      outer.emplace_back(fresh + static_cast<std::int64_t>(i));
    }
  }

  return ForEachMinimalValuation(
      q_prime, outer, [&q, &q_prime, fresh](const Valuation& v_prime) {
        const Instance required_prime = v_prime.RequiredFacts(q_prime);

        // Inner universe: values seen by V' + constants of Q + fresh values
        // for the variables of Q (distinct from everything in `outer`).
        const std::vector<Value> prime_dom = required_prime.ActiveDomain();
        std::set<Value> inner_set(prime_dom.begin(), prime_dom.end());
        for (Value c : q.Constants()) inner_set.insert(c);
        const std::int64_t inner_fresh =
            fresh + static_cast<std::int64_t>(q_prime.NumVars());
        for (std::size_t i = 0; i < q.NumVars(); ++i) {
          inner_set.insert(Value(inner_fresh + static_cast<std::int64_t>(i)));
        }
        const std::vector<Value> inner(inner_set.begin(), inner_set.end());

        bool covered = false;
        ForEachMinimalValuation(
            q, inner,
            [&q, &required_prime, &covered](const Valuation& v) {
              if (required_prime.IsSubsetOf(v.RequiredFacts(q))) {
                covered = true;
                return false;
              }
              return true;
            });
        return covered;
      });
}

bool ParallelCorrectnessTransfersTo(const ConjunctiveQuery& q,
                                    const ConjunctiveQuery& q_prime) {
  return Covers(q, q_prime);
}

}  // namespace lamp
