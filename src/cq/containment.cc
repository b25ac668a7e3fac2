#include "cq/containment.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "cq/eval.h"
#include "cq/valuation.h"
#include "par/thread_pool.h"

namespace lamp {

namespace {

/// Enumerates all partitions of {0,...,n-1} as restricted growth strings:
/// block[i] is the block index of element i, block[0] == 0 and
/// block[i] <= max(block[0..i-1]) + 1. Stops early if fn returns false.
template <typename Fn>
bool ForEachPartition(std::size_t n, Fn&& fn) {
  std::vector<std::size_t> block(n, 0);
  if (n == 0) return fn(block);
  while (true) {
    if (!fn(static_cast<const std::vector<std::size_t>&>(block))) return false;
    // Advance to the next restricted growth string.
    std::size_t i = n;
    while (i-- > 1) {
      std::size_t max_prefix = 0;
      for (std::size_t j = 0; j < i; ++j) max_prefix = std::max(max_prefix, block[j]);
      if (block[i] <= max_prefix) {
        ++block[i];
        std::fill(block.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  block.end(), 0);
        break;
      }
      if (i == 1) return true;  // Exhausted.
    }
    if (n == 1) return true;
  }
}

/// All facts over \p schema with arguments drawn from \p universe.
std::vector<Fact> AllFactsOver(const Schema& schema,
                               const std::vector<Value>& universe) {
  std::vector<Fact> all;
  for (RelationId rel = 0; rel < schema.NumRelations(); ++rel) {
    const std::size_t arity = schema.ArityOf(rel);
    std::vector<std::size_t> idx(arity, 0);
    while (true) {
      std::vector<Value> args;
      args.reserve(arity);
      for (std::size_t i = 0; i < arity; ++i) args.push_back(universe[idx[i]]);
      all.emplace_back(rel, std::move(args));
      std::size_t pos = 0;
      while (pos < arity) {
        if (++idx[pos] < universe.size()) break;
        idx[pos] = 0;
        ++pos;
      }
      if (pos == arity) break;
      if (arity == 0) break;
    }
    if (arity == 0) continue;
  }
  return all;
}

bool ViolatesContainmentOn(const ConjunctiveQuery& q1,
                           const ConjunctiveQuery& q2, const Instance& inst) {
  return !Evaluate(q1, inst).IsSubsetOf(Evaluate(q2, inst));
}

}  // namespace

bool ForEachCanonicalDatabase(
    const ConjunctiveQuery& query,
    const std::function<bool(const Instance&, const Fact&)>& visit) {
  LAMP_CHECK_MSG(query.negated().empty(),
                 "canonical databases are defined for CQs without negation");
  const std::size_t n = query.NumVars();
  const std::set<Value> const_set = query.Constants();
  const std::vector<Value> consts(const_set.begin(), const_set.end());

  // Fresh values guaranteed distinct from all constants.
  std::int64_t fresh_base = 1;
  for (Value c : consts) fresh_base = std::max(fresh_base, c.v + 1);

  return ForEachPartition(n, [&](const std::vector<std::size_t>& block) {
    const std::size_t num_blocks =
        n == 0 ? 0 : 1 + *std::max_element(block.begin(), block.end());
    // Each block is assigned either its own fresh value or one of the
    // query's constants (a valuation may identify a variable with a
    // constant). Enumerate all (1 + #consts)^num_blocks choices.
    std::vector<std::size_t> choice(num_blocks, 0);  // 0 = fresh, k = consts[k-1]
    while (true) {
      Valuation v(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = choice[block[i]];
        const Value value = c == 0
                                ? Value(fresh_base + static_cast<std::int64_t>(
                                                         block[i]))
                                : consts[c - 1];
        v.Bind(static_cast<VarId>(i), value);
      }
      if (v.SatisfiesInequalities(query)) {
        const Instance canonical = v.RequiredFacts(query);
        const Fact head = v.ApplyToAtom(query.head());
        if (!visit(canonical, head)) return false;
      }
      std::size_t pos = 0;
      while (pos < num_blocks) {
        if (++choice[pos] <= consts.size()) break;
        choice[pos] = 0;
        ++pos;
      }
      if (pos == num_blocks) break;
    }
    return true;
  });
}

bool IsContainedIn(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  LAMP_CHECK_MSG(q1.negated().empty() && q2.negated().empty(),
                 "exact containment supports CQs without negation only");
  // Fast path: both plain and constant-free. Then the single *injective*
  // canonical database decides containment (classical homomorphism test) —
  // non-injective valuations factor through the injective one by
  // monotonicity of plain CQs.
  if (q1.IsPlain() && q2.IsPlain() && q1.Constants().empty() &&
      q2.Constants().empty()) {
    Valuation frozen(q1.NumVars());
    for (VarId v = 0; v < q1.NumVars(); ++v) {
      frozen.Bind(v, Value(static_cast<std::int64_t>(v) + 1));
    }
    return Evaluate(q2, frozen.RequiredFacts(q1))
        .Contains(frozen.ApplyToAtom(q1.head()));
  }

  bool contained = true;
  ForEachCanonicalDatabase(
      q1, [&q2, &contained](const Instance& canonical, const Fact& head) {
        if (!Evaluate(q2, canonical).Contains(head)) {
          contained = false;
          return false;
        }
        return true;
      });
  return contained;
}

std::vector<std::uint8_t> ContainmentMatrix(
    const std::vector<ConjunctiveQuery>& queries) {
  const std::size_t n = queries.size();
  std::vector<std::uint8_t> matrix(n * n, 0);
  par::GlobalPool().ParallelFor(0, n * n, [&queries, &matrix,
                                           n](std::size_t cell) {
    matrix[cell] = IsContainedIn(queries[cell / n], queries[cell % n]) ? 1 : 0;
  });
  return matrix;
}

std::optional<Instance> FindContainmentCounterexample(
    const Schema& schema, const ConjunctiveQuery& q1,
    const ConjunctiveQuery& q2, std::size_t domain_size,
    std::size_t max_facts) {
  std::vector<Value> universe;
  universe.reserve(domain_size);
  for (std::size_t i = 0; i < domain_size; ++i) {
    universe.emplace_back(static_cast<std::int64_t>(i + 1));
  }
  const std::vector<Fact> pool = AllFactsOver(schema, universe);

  // Depth-first enumeration of subsets of `pool` with at most max_facts
  // elements; every subset is tested as soon as it is formed, so small
  // counterexamples are found early.
  Instance current;
  std::optional<Instance> found;
  std::function<void(std::size_t)> descend = [&](std::size_t start) {
    if (found.has_value()) return;
    if (ViolatesContainmentOn(q1, q2, current)) {
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

std::optional<Instance> RandomContainmentCounterexample(
    const Schema& schema, const ConjunctiveQuery& q1,
    const ConjunctiveQuery& q2, std::size_t domain_size,
    std::size_t facts_per_relation, std::size_t trials, Rng& rng) {
  for (std::size_t t = 0; t < trials; ++t) {
    Instance inst;
    for (RelationId rel = 0; rel < schema.NumRelations(); ++rel) {
      const std::size_t arity = schema.ArityOf(rel);
      for (std::size_t k = 0; k < facts_per_relation; ++k) {
        std::vector<Value> args;
        args.reserve(arity);
        for (std::size_t i = 0; i < arity; ++i) {
          args.emplace_back(
              static_cast<std::int64_t>(rng.Uniform(domain_size) + 1));
        }
        inst.Insert(Fact(rel, std::move(args)));
      }
    }
    if (ViolatesContainmentOn(q1, q2, inst)) return inst;
  }
  return std::nullopt;
}

}  // namespace lamp
