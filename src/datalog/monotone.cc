#include "datalog/monotone.h"

#include <algorithm>
#include <set>
#include <vector>

#include "common/check.h"

namespace lamp {

namespace {

/// All facts of the given relations with arguments from \p universe.
std::vector<Fact> FactPool(const Schema& schema,
                           const std::vector<RelationId>& relations,
                           const std::vector<Value>& universe) {
  std::vector<Fact> pool;
  for (RelationId rel : relations) {
    const std::size_t arity = schema.ArityOf(rel);
    std::vector<std::size_t> idx(arity, 0);
    if (universe.empty() && arity > 0) continue;
    while (true) {
      std::vector<Value> args;
      args.reserve(arity);
      for (std::size_t i = 0; i < arity; ++i) args.push_back(universe[idx[i]]);
      pool.emplace_back(rel, std::move(args));
      std::size_t pos = 0;
      while (pos < arity) {
        if (++idx[pos] < universe.size()) break;
        idx[pos] = 0;
        ++pos;
      }
      if (pos == arity) break;
    }
  }
  return pool;
}

bool ViolationAt(const QueryFunction& query, const Instance& base,
                 const Instance& addition) {
  const Instance before = query(base);
  Instance merged = base;
  merged.InsertAll(addition);
  return !before.IsSubsetOf(query(merged));
}

/// Enumerates subsets of `pool` of size <= max_facts, invoking fn on each;
/// fn returning false stops the walk.
template <typename Fn>
void ForEachBoundedSubset(const std::vector<Fact>& pool,
                          std::size_t max_facts, Fn&& fn) {
  Instance current;
  bool stop = false;
  std::function<void(std::size_t)> descend = [&](std::size_t start) {
    if (stop) return;
    if (!fn(static_cast<const Instance&>(current))) {
      stop = true;
      return;
    }
    if (current.Size() >= max_facts) return;
    for (std::size_t i = start; i < pool.size() && !stop; ++i) {
      Instance next = current;
      next.Insert(pool[i]);
      std::swap(current, next);
      descend(i + 1);
      std::swap(current, next);
    }
  };
  descend(0);
}

}  // namespace

bool SatisfiesAdditionConstraint(const Instance& base,
                                 const Instance& addition,
                                 MonotonicityKind kind) {
  if (kind == MonotonicityKind::kPlain) return true;
  // ActiveDomain is sorted, so membership is a binary search.
  const std::vector<Value> adom = base.ActiveDomain();
  const auto fresh = [&adom](Value v) {
    return !std::binary_search(adom.begin(), adom.end(), v);
  };
  for (RelationId rel = 0; rel < addition.NumRelationIds(); ++rel) {
    const RowsView rows = addition.RowsOf(rel);
    // Nullary facts have no fresh value: neither distinct nor disjoint.
    if (!rows.empty() && rows.arity == 0) return false;
    for (std::size_t i = 0; i < rows.num_rows; ++i) {
      const Value* begin = rows.Row(i);
      const Value* end = begin + rows.arity;
      // Distinct: some value outside adom(base); disjoint: every value.
      if (kind == MonotonicityKind::kDomainDistinct
              ? std::none_of(begin, end, fresh)
              : !std::all_of(begin, end, fresh)) {
        return false;
      }
    }
  }
  return true;
}

std::optional<MonotonicityViolation> FindMonotonicityViolation(
    const Schema& schema, const std::vector<RelationId>& relations,
    const QueryFunction& query, MonotonicityKind kind,
    std::size_t domain_size, std::size_t extra_values,
    std::size_t max_facts) {
  std::vector<Value> base_universe;
  for (std::size_t i = 0; i < domain_size; ++i) {
    base_universe.emplace_back(static_cast<std::int64_t>(i));
  }
  std::vector<Value> extended = base_universe;
  for (std::size_t i = 0; i < extra_values; ++i) {
    extended.emplace_back(static_cast<std::int64_t>(domain_size + i));
  }

  const std::vector<Fact> base_pool =
      FactPool(schema, relations, base_universe);
  const std::vector<Fact> add_pool = FactPool(schema, relations, extended);

  std::optional<MonotonicityViolation> found;
  ForEachBoundedSubset(base_pool, max_facts, [&](const Instance& base) {
    ForEachBoundedSubset(add_pool, max_facts, [&](const Instance& addition) {
      if (addition.Empty()) return true;
      if (!SatisfiesAdditionConstraint(base, addition, kind)) return true;
      if (ViolationAt(query, base, addition)) {
        found = std::make_pair(base, addition);
        return false;
      }
      return true;
    });
    return !found.has_value();
  });
  return found;
}

std::optional<MonotonicityViolation> RandomMonotonicityViolation(
    const Schema& schema, const std::vector<RelationId>& relations,
    const QueryFunction& query, MonotonicityKind kind,
    std::size_t domain_size, std::size_t facts_per_relation,
    std::size_t trials, Rng& rng) {
  LAMP_CHECK(domain_size >= 2);
  for (std::size_t t = 0; t < trials; ++t) {
    // Base over the lower half of the domain, addition values drawn from
    // the full domain but filtered by the constraint.
    Instance base;
    Instance addition;
    for (RelationId rel : relations) {
      const std::size_t arity = schema.ArityOf(rel);
      for (std::size_t k = 0; k < facts_per_relation; ++k) {
        std::vector<Value> args;
        for (std::size_t i = 0; i < arity; ++i) {
          args.emplace_back(
              static_cast<std::int64_t>(rng.Uniform(domain_size / 2)));
        }
        base.Insert(Fact(rel, std::move(args)));
      }
    }
    for (RelationId rel : relations) {
      const std::size_t arity = schema.ArityOf(rel);
      if (arity == 0) continue;
      for (std::size_t k = 0; k < facts_per_relation; ++k) {
        std::vector<Value> args;
        for (std::size_t i = 0; i < arity; ++i) {
          args.emplace_back(static_cast<std::int64_t>(
              rng.Uniform(domain_size)));
        }
        Fact f(rel, std::move(args));
        Instance single;
        single.Insert(f);
        if (SatisfiesAdditionConstraint(base, single, kind)) {
          addition.Insert(f);
        }
      }
    }
    if (addition.Empty()) continue;
    if (ViolationAt(query, base, addition)) {
      return std::make_pair(base, addition);
    }
  }
  return std::nullopt;
}

}  // namespace lamp
