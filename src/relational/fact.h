#ifndef LAMP_RELATIONAL_FACT_H_
#define LAMP_RELATIONAL_FACT_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/hash.h"
#include "relational/schema.h"
#include "relational/value.h"

/// \file
/// Facts: a relation name applied to domain values, e.g. R(a, b)
/// (Section 2 of the paper).

namespace lamp {

/// A single fact R(a1, ..., ak).
struct Fact {
  RelationId relation = 0;
  std::vector<Value> args;

  Fact() = default;
  Fact(RelationId rel, std::vector<Value> arguments)
      : relation(rel), args(std::move(arguments)) {}
  Fact(RelationId rel, std::initializer_list<std::int64_t> arguments)
      : relation(rel) {
    args.reserve(arguments.size());
    for (std::int64_t a : arguments) args.emplace_back(a);
  }

  friend bool operator==(const Fact& a, const Fact& b) {
    return a.relation == b.relation && a.args == b.args;
  }
  friend bool operator<(const Fact& a, const Fact& b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.args < b.args;
  }
};

/// Hash of the fact relation(row[0..arity)); FactHash is this over a Fact.
inline std::uint64_t RowHash(RelationId relation, const Value* row,
                             std::size_t arity) {
  std::uint64_t h = HashMix(relation);
  for (std::size_t i = 0; i < arity; ++i) {
    h = HashCombine(h, static_cast<std::uint64_t>(row[i].v));
  }
  return h;
}

struct FactHash {
  std::size_t operator()(const Fact& f) const {
    return static_cast<std::size_t>(
        RowHash(f.relation, f.args.data(), f.args.size()));
  }
};

/// Renders a fact as "R(1,2)" using \p schema for the relation name.
std::string FactToString(const Schema& schema, const Fact& fact);

}  // namespace lamp

#endif  // LAMP_RELATIONAL_FACT_H_
