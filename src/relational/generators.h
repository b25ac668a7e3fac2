#ifndef LAMP_RELATIONAL_GENERATORS_H_
#define LAMP_RELATIONAL_GENERATORS_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "relational/instance.h"
#include "relational/schema.h"

/// \file
/// Synthetic workload generators.
///
/// The paper's load statements are parameterized by relation size m, server
/// count p and the presence of *skew* (heavy hitters). These generators
/// produce the three database families the surveyed results distinguish:
/// skew-free relations (every value bounded frequency), Zipf-skewed
/// relations (heavy hitters), and matching databases (the lower-bound family
/// of Beame-Koutris-Suciu, where every value occurs at most once per
/// column).

namespace lamp {

/// Adds \p m distinct uniformly random tuples over domain [0, domain_size)
/// to relation \p rel of \p schema. Requires domain_size^arity >= m.
void AddUniformRelation(const Schema& schema, RelationId rel, std::size_t m,
                        std::size_t domain_size, Rng& rng, Instance& out);

/// Adds \p m distinct tuples to binary relation \p rel where the column
/// \p skewed_column (0 or 1) is drawn Zipf(s) over [0, domain_size) — so for
/// s around 1 or larger a few heavy hitters absorb a large fraction of the
/// tuples — and the other column is uniform.
void AddZipfRelation(const Schema& schema, RelationId rel, std::size_t m,
                     std::size_t domain_size, double zipf_s,
                     int skewed_column, Rng& rng, Instance& out);

/// Adds a *matching* relation of \p m tuples to \p rel: every domain value
/// occurs at most once in every column (the skew-free extreme; Section 3.2
/// "matching databases"). Column i uses the disjoint value range
/// [base + i*m, base + (i+1)*m) permuted randomly.
void AddMatchingRelation(const Schema& schema, RelationId rel, std::size_t m,
                         std::int64_t value_base, Rng& rng, Instance& out);

/// The skew-free HyperCube load input: one matching relation of \p m
/// tuples per entry of \p relations, 2m values apart, from Rng(11).
/// bench_hypercube_load and mpc_procs audit loads against bounds set for it.
Instance MatchingInput(const Schema& schema,
                       const std::vector<RelationId>& relations,
                       std::size_t m);

/// The binary-join inputs over R(x,y), S(y,z), from one Rng(1): `skew_free`
/// is two matching relations overlapping on y; `skewed` puts half of R on
/// y = 0 against ten S tuples with y = 0 (a heavy value, linear output)
/// plus uniform rows over [0, 16m). bench_join_strategies and mpc_procs
/// audit loads against bounds set for them.
struct JoinWorkload {
  Instance skew_free;
  Instance skewed;
};
JoinWorkload MakeJoinWorkload(const Schema& schema, RelationId r,
                              RelationId s, std::size_t m);

/// Adds \p m distinct random directed edges over [0, n) to binary relation
/// \p rel (no self-loops). Requires m <= n*(n-1).
void AddRandomGraph(const Schema& schema, RelationId rel, std::size_t m,
                    std::size_t n, Rng& rng, Instance& out);

/// Adds the directed path 0 -> 1 -> ... -> n-1 to \p rel.
void AddPathGraph(const Schema& schema, RelationId rel, std::size_t n,
                  Instance& out);

/// Adds the directed cycle over [0, n) to \p rel.
void AddCycleGraph(const Schema& schema, RelationId rel, std::size_t n,
                   Instance& out);

/// Adds a graph guaranteed to contain many triangles: \p triangles vertex
/// triples (3t fresh vertices starting at value_base), each wired as a
/// directed triangle.
void AddTriangleClusters(const Schema& schema, RelationId rel,
                         std::size_t triangles, std::int64_t value_base,
                         Instance& out);

}  // namespace lamp

#endif  // LAMP_RELATIONAL_GENERATORS_H_
