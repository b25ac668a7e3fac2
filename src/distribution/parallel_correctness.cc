#include "distribution/parallel_correctness.h"

#include <functional>

#include "common/check.h"
#include "cq/eval.h"
#include "cq/minimal.h"
#include "par/thread_pool.h"

namespace lamp {

Instance DistributedEval(const ConjunctiveQuery& query,
                         const DistributionPolicy& policy,
                         const Instance& instance) {
  // Nodes evaluate independently; folding the per-node results in
  // ascending node order keeps the output identical to the serial loop.
  std::vector<Instance> per_node = DistributeByPolicy(instance, policy);
  par::GlobalPool().ParallelFor(
      0, per_node.size(), [&query, &per_node](std::size_t node) {
        per_node[node] = Evaluate(query, per_node[node]);
      });
  Instance result;
  for (const Instance& local : per_node) result.InsertAll(local);
  return result;
}

bool IsParallelSoundOn(const ConjunctiveQuery& query,
                       const DistributionPolicy& policy,
                       const Instance& instance) {
  const Instance global = Evaluate(query, instance);
  return DistributedEval(query, policy, instance).IsSubsetOf(global);
}

bool IsParallelCompleteOn(const ConjunctiveQuery& query,
                          const DistributionPolicy& policy,
                          const Instance& instance) {
  const Instance global = Evaluate(query, instance);
  return global.IsSubsetOf(DistributedEval(query, policy, instance));
}

bool IsParallelCorrectOn(const ConjunctiveQuery& query,
                         const DistributionPolicy& policy,
                         const Instance& instance) {
  return Evaluate(query, instance) ==
         DistributedEval(query, policy, instance);
}

bool StronglySaturates(const DistributionPolicy& policy,
                       const ConjunctiveQuery& query) {
  LAMP_CHECK_MSG(query.negated().empty(),
                 "saturation conditions are defined for CQs without negation");
  return ForEachValuationOverUniverse(
      query, policy.Universe(), [&query, &policy](const Valuation& v) {
        if (!v.SatisfiesInequalities(query)) return true;
        return policy.SomeNodeHasAll(v.RequiredFacts(query));
      });
}

bool Saturates(const DistributionPolicy& policy,
               const ConjunctiveQuery& query) {
  LAMP_CHECK_MSG(query.negated().empty(),
                 "saturation conditions are defined for CQs without negation");
  return ForEachMinimalValuation(
      query, policy.Universe(), [&query, &policy](const Valuation& v) {
        return policy.SomeNodeHasAll(v.RequiredFacts(query));
      });
}

bool IsParallelCorrect(const ConjunctiveQuery& query,
                       const DistributionPolicy& policy) {
  // Proposition 4.6: parallel-correct iff P saturates Q.
  return Saturates(policy, query);
}

bool IsMinimalForUnion(const std::vector<ConjunctiveQuery>& union_queries,
                       std::size_t index, const Valuation& valuation) {
  LAMP_CHECK(index < union_queries.size());
  const ConjunctiveQuery& query = union_queries[index];
  const Instance required = valuation.RequiredFacts(query);
  const Fact head = valuation.ApplyToAtom(query.head());

  for (const ConjunctiveQuery& other : union_queries) {
    LAMP_CHECK_MSG(other.negated().empty(),
                   "union minimality requires negation-free disjuncts");
    bool smaller_found = false;
    ForEachSatisfyingValuation(
        other, required,
        [&other, &required, &head, &smaller_found](const Valuation& cand) {
          if (cand.ApplyToAtom(other.head()) == head &&
              cand.RequiredFacts(other).Size() < required.Size()) {
            smaller_found = true;
            return false;
          }
          return true;
        });
    if (smaller_found) return false;
  }
  return true;
}

bool IsParallelCorrectUnion(const std::vector<ConjunctiveQuery>& union_queries,
                            const DistributionPolicy& policy) {
  for (std::size_t i = 0; i < union_queries.size(); ++i) {
    const ConjunctiveQuery& query = union_queries[i];
    const bool ok = ForEachValuationOverUniverse(
        query, policy.Universe(),
        [&union_queries, i, &query, &policy](const Valuation& v) {
          if (!v.SatisfiesInequalities(query)) return true;
          if (!IsMinimalForUnion(union_queries, i, v)) return true;
          return policy.SomeNodeHasAll(v.RequiredFacts(query));
        });
    if (!ok) return false;
  }
  return true;
}

std::vector<std::uint8_t> ParallelCorrectnessSweep(
    const std::vector<PcCheck>& checks) {
  std::vector<std::uint8_t> verdicts(checks.size(), 0);
  par::GlobalPool().ParallelFor(
      0, checks.size(), [&checks, &verdicts](std::size_t i) {
        verdicts[i] =
            IsParallelCorrect(*checks[i].query, *checks[i].policy) ? 1 : 0;
      });
  return verdicts;
}

std::optional<Instance> FindPcCounterexample(const Schema& schema,
                                             const ConjunctiveQuery& query,
                                             const DistributionPolicy& policy,
                                             std::size_t max_facts) {
  // Pool: all facts over the policy's universe, for every schema relation.
  std::vector<Fact> pool;
  for (RelationId rel = 0; rel < schema.NumRelations(); ++rel) {
    const std::size_t arity = schema.ArityOf(rel);
    std::vector<std::size_t> idx(arity, 0);
    const std::vector<Value>& u = policy.Universe();
    if (u.empty()) continue;
    while (true) {
      std::vector<Value> args;
      args.reserve(arity);
      for (std::size_t i = 0; i < arity; ++i) args.push_back(u[idx[i]]);
      pool.emplace_back(rel, std::move(args));
      std::size_t pos = 0;
      while (pos < arity) {
        if (++idx[pos] < u.size()) break;
        idx[pos] = 0;
        ++pos;
      }
      if (pos == arity) break;
    }
  }

  Instance current;
  std::optional<Instance> found;
  std::function<void(std::size_t)> descend = [&](std::size_t start) {
    if (found.has_value()) return;
    if (!IsParallelCorrectOn(query, policy, current)) {
      found = current;
      return;
    }
    if (current.Size() >= max_facts) return;
    for (std::size_t i = start; i < pool.size() && !found.has_value(); ++i) {
      Instance next = current;
      next.Insert(pool[i]);
      std::swap(current, next);
      descend(i + 1);
      std::swap(current, next);
    }
  };
  descend(0);
  return found;
}

}  // namespace lamp
