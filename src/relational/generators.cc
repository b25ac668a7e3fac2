#include "relational/generators.h"

#include <numeric>
#include <vector>

#include "common/check.h"

namespace lamp {

void AddUniformRelation(const Schema& schema, RelationId rel, std::size_t m,
                        std::size_t domain_size, Rng& rng, Instance& out) {
  const std::size_t arity = schema.ArityOf(rel);
  LAMP_CHECK(domain_size > 0);
  // Distinctness via rejection; fine as long as m is well below
  // domain_size^arity.
  std::size_t inserted = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 64 * m + 1024;
  while (inserted < m) {
    LAMP_CHECK_MSG(++attempts < max_attempts,
                   "domain too small for requested relation size");
    std::vector<Value> args;
    args.reserve(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      args.emplace_back(static_cast<std::int64_t>(rng.Uniform(domain_size)));
    }
    if (out.Insert(Fact(rel, std::move(args)))) ++inserted;
  }
}

void AddZipfRelation(const Schema& schema, RelationId rel, std::size_t m,
                     std::size_t domain_size, double zipf_s,
                     int skewed_column, Rng& rng, Instance& out) {
  LAMP_CHECK(schema.ArityOf(rel) == 2);
  LAMP_CHECK(skewed_column == 0 || skewed_column == 1);
  const ZipfSampler zipf(domain_size, zipf_s);
  std::size_t inserted = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 256 * m + 1024;
  while (inserted < m) {
    LAMP_CHECK_MSG(++attempts < max_attempts,
                   "domain too small for requested skewed relation");
    const auto hot =
        static_cast<std::int64_t>(zipf.Sample(rng));
    const auto cold =
        static_cast<std::int64_t>(rng.Uniform(domain_size));
    Fact f = skewed_column == 0 ? Fact(rel, {hot, cold})
                                : Fact(rel, {cold, hot});
    if (out.Insert(f)) ++inserted;
  }
}

void AddMatchingRelation(const Schema& schema, RelationId rel, std::size_t m,
                         std::int64_t value_base, Rng& rng, Instance& out) {
  const std::size_t arity = schema.ArityOf(rel);
  // One random permutation of [0, m) per column; column i draws from the
  // disjoint range starting at value_base + i*m, so no value repeats within
  // any column (or across columns).
  std::vector<std::vector<std::size_t>> perms(arity);
  for (auto& perm : perms) {
    perm.resize(m);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    rng.Shuffle(perm);
  }
  for (std::size_t row = 0; row < m; ++row) {
    std::vector<Value> args;
    args.reserve(arity);
    for (std::size_t col = 0; col < arity; ++col) {
      args.emplace_back(value_base + static_cast<std::int64_t>(col * m) +
                        static_cast<std::int64_t>(perms[col][row]));
    }
    out.Insert(Fact(rel, std::move(args)));
  }
}

Instance MatchingInput(const Schema& schema,
                       const std::vector<RelationId>& relations,
                       std::size_t m) {
  Rng rng(11);
  Instance db;
  std::int64_t base = 0;
  for (const RelationId rel : relations) {
    AddMatchingRelation(schema, rel, m, base, rng, db);
    base += static_cast<std::int64_t>(2 * m);
  }
  return db;
}

JoinWorkload MakeJoinWorkload(const Schema& schema, RelationId r,
                              RelationId s, std::size_t m) {
  Rng rng(1);
  JoinWorkload w;
  AddMatchingRelation(schema, r, m, 0, rng, w.skew_free);
  AddMatchingRelation(schema, s, m, static_cast<std::int64_t>(m), rng,
                      w.skew_free);
  for (std::size_t i = 0; i < m / 2; ++i) {
    w.skewed.Insert(Fact(r, {static_cast<std::int64_t>(i), 0}));
  }
  for (std::size_t i = 0; i < 10; ++i) {
    w.skewed.Insert(Fact(s, {0, static_cast<std::int64_t>(i)}));
  }
  AddUniformRelation(schema, r, m / 2, 16 * m, rng, w.skewed);
  AddUniformRelation(schema, s, m - 10, 16 * m, rng, w.skewed);
  return w;
}

void AddRandomGraph(const Schema& schema, RelationId rel, std::size_t m,
                    std::size_t n, Rng& rng, Instance& out) {
  LAMP_CHECK(schema.ArityOf(rel) == 2);
  LAMP_CHECK(n >= 2);
  LAMP_CHECK(m <= n * (n - 1));
  std::size_t inserted = 0;
  while (inserted < m) {
    const auto a = static_cast<std::int64_t>(rng.Uniform(n));
    const auto b = static_cast<std::int64_t>(rng.Uniform(n));
    if (a == b) continue;
    if (out.Insert(Fact(rel, {a, b}))) ++inserted;
  }
}

void AddPathGraph(const Schema& schema, RelationId rel, std::size_t n,
                  Instance& out) {
  LAMP_CHECK(schema.ArityOf(rel) == 2);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    out.Insert(Fact(rel, {static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(i + 1)}));
  }
}

void AddCycleGraph(const Schema& schema, RelationId rel, std::size_t n,
                   Instance& out) {
  LAMP_CHECK(schema.ArityOf(rel) == 2);
  LAMP_CHECK(n >= 1);
  for (std::size_t i = 0; i < n; ++i) {
    out.Insert(Fact(rel, {static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>((i + 1) % n)}));
  }
}

void AddTriangleClusters(const Schema& schema, RelationId rel,
                         std::size_t triangles, std::int64_t value_base,
                         Instance& out) {
  LAMP_CHECK(schema.ArityOf(rel) == 2);
  for (std::size_t t = 0; t < triangles; ++t) {
    const std::int64_t a = value_base + static_cast<std::int64_t>(3 * t);
    out.Insert(Fact(rel, {a, a + 1}));
    out.Insert(Fact(rel, {a + 1, a + 2}));
    out.Insert(Fact(rel, {a + 2, a}));
  }
}

}  // namespace lamp
