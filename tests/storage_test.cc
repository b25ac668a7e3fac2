// Columnar storage contract tests (DESIGN.md §Storage layout).
//
// Two halves. (1) A randomized property test drives Instance through the
// full mutation surface — InsertRow / Insert / InsertRows / InsertAll —
// against a reference set-of-rows model, checking after every step that
// set semantics, per-relation insertion order, membership, ActiveDomain
// and the lazily built join indexes all agree with the model; the
// row-level set operations (IsSubsetOf, Minus, SelectRelations, ==) are
// checked against the same model on random pairs of instances. (2) A
// digest-parity test pins the end-to-end contract the refactor must not
// move: the same MPC workload produces byte-identical output fingerprints
// at thread counts {1, 4} and across the inproc / tcp transports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "cq/parser.h"
#include "mpc/hypercube_run.h"
#include "par/thread_pool.h"
#include "relational/generators.h"
#include "relational/instance.h"
#include "transport/transport.h"

namespace lamp {
namespace {

// ------------------------------------------------ reference model --

/// The specification Instance implements: a set of rows per relation that
/// also remembers first-insertion order.
class ReferenceModel {
 public:
  bool Insert(RelationId rel, const std::vector<std::int64_t>& row) {
    if (!seen_.insert({rel, row}).second) return false;
    rows_[rel].push_back(row);
    return true;
  }

  bool Contains(RelationId rel, const std::vector<std::int64_t>& row) const {
    return seen_.count({rel, row}) > 0;
  }

  std::size_t Size() const { return seen_.size(); }

  const std::vector<std::vector<std::int64_t>>& RowsOf(RelationId rel) const {
    static const std::vector<std::vector<std::int64_t>> kEmpty;
    auto it = rows_.find(rel);
    return it == rows_.end() ? kEmpty : it->second;
  }

  std::vector<std::int64_t> ActiveDomain() const {
    std::set<std::int64_t> dom;
    for (const auto& [rel, rows] : rows_) {
      for (const auto& row : rows) dom.insert(row.begin(), row.end());
    }
    return {dom.begin(), dom.end()};
  }

  const std::map<RelationId, std::vector<std::vector<std::int64_t>>>& rows()
      const {
    return rows_;
  }

  bool IsSubsetOf(const ReferenceModel& other) const {
    return std::includes(other.seen_.begin(), other.seen_.end(),
                         seen_.begin(), seen_.end());
  }

  bool operator==(const ReferenceModel& other) const {
    return seen_ == other.seen_;
  }

  /// The rows not in \p other, in (relation, insertion) order.
  ReferenceModel Minus(const ReferenceModel& other) const {
    ReferenceModel out;
    for (const auto& [rel, rows] : rows_) {
      for (const auto& row : rows) {
        if (!other.Contains(rel, row)) out.Insert(rel, row);
      }
    }
    return out;
  }

  /// The relations r with keep(r), whole and in insertion order.
  template <typename Predicate>
  ReferenceModel SelectRelations(Predicate keep) const {
    ReferenceModel out;
    for (const auto& [rel, rows] : rows_) {
      if (!keep(rel)) continue;
      for (const auto& row : rows) out.Insert(rel, row);
    }
    return out;
  }

 private:
  std::map<RelationId, std::vector<std::vector<std::int64_t>>> rows_;
  std::set<std::pair<RelationId, std::vector<std::int64_t>>> seen_;
};

std::vector<std::int64_t> RandomRow(Rng& rng, std::size_t arity,
                                    std::int64_t domain) {
  std::vector<std::int64_t> row(arity);
  for (auto& v : row) v = rng.UniformInt(0, domain - 1);
  return row;
}

std::vector<Value> ToValues(const std::vector<std::int64_t>& row) {
  std::vector<Value> out;
  out.reserve(row.size());
  for (std::int64_t v : row) out.push_back(Value(v));
  return out;
}

/// Full agreement check: sizes, per-relation row sequences (insertion
/// order), membership of present rows, ActiveDomain.
void ExpectMatchesModel(const Instance& instance,
                        const ReferenceModel& model) {
  ASSERT_EQ(instance.Size(), model.Size());
  for (const auto& [rel, expected] : model.rows()) {
    const RowsView rows = instance.RowsOf(rel);
    ASSERT_EQ(rows.num_rows, expected.size()) << "relation " << rel;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const Value* row = rows.Row(i);
      for (std::size_t j = 0; j < expected[i].size(); ++j) {
        ASSERT_EQ(row[j].v, expected[i][j])
            << "relation " << rel << " row " << i << " pos " << j;
      }
      const std::vector<Value> vals = ToValues(expected[i]);
      EXPECT_TRUE(instance.ContainsRow(rel, vals.data(), vals.size()));
    }
  }
  const std::vector<Value> dom = instance.ActiveDomain();
  const std::vector<std::int64_t> expected_dom = model.ActiveDomain();
  ASSERT_EQ(dom.size(), expected_dom.size());
  for (std::size_t i = 0; i < dom.size(); ++i) {
    EXPECT_EQ(dom[i].v, expected_dom[i]);
  }
}

/// Probes every key of \p rel through IndexOn and checks the bucket chain
/// enumerates exactly the model's matching rows, in insertion order.
void ExpectIndexMatchesModel(const Instance& instance,
                             const ReferenceModel& model, RelationId rel,
                             std::size_t arity, std::uint64_t mask) {
  if (instance.NumRows(rel) == 0) return;
  std::vector<std::uint32_t> key_pos;
  for (std::size_t p = 0; p < arity; ++p) {
    if ((mask >> p) & 1) key_pos.push_back(static_cast<std::uint32_t>(p));
  }
  const JoinIndex& index = instance.IndexOn(rel, mask);
  ASSERT_EQ(index.key_pos, key_pos);
  const RowsView rows = instance.RowsOf(rel);
  const auto& expected = model.RowsOf(rel);

  // For every distinct key in the relation, gather the chain's rows and
  // compare with a model scan.
  std::set<std::vector<std::int64_t>> keys;
  for (const auto& row : expected) {
    std::vector<std::int64_t> key;
    for (std::uint32_t p : key_pos) key.push_back(row[p]);
    keys.insert(key);
  }
  for (const auto& key : keys) {
    std::uint64_t h = 1469598103934665603ull;
    for (std::int64_t v : key) {
      h = HashCombine(h, static_cast<std::uint64_t>(v));
    }
    const std::size_t slot = static_cast<std::size_t>(h) & index.SlotMask();
    std::vector<std::size_t> via_index;
    for (std::uint32_t link = index.head[slot]; link != 0;
         link = index.next[link - 1]) {
      const std::size_t row_id = link - 1;
      const Value* row = rows.Row(row_id);
      bool match = true;
      for (std::size_t k = 0; k < key_pos.size(); ++k) {
        if (row[key_pos[k]].v != key[k]) {
          match = false;
          break;
        }
      }
      if (match) via_index.push_back(row_id);
    }
    std::vector<std::size_t> via_scan;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      bool match = true;
      for (std::size_t k = 0; k < key_pos.size(); ++k) {
        if (expected[i][key_pos[k]] != key[k]) {
          match = false;
          break;
        }
      }
      if (match) via_scan.push_back(i);
    }
    // Chains are threaded in ascending row id = insertion order.
    EXPECT_EQ(via_index, via_scan);
  }
}

TEST(StorageProperty, RandomOpsAgreeWithReferenceModel) {
  constexpr RelationId kRelations = 4;
  const std::size_t kArity[kRelations] = {2, 2, 3, 1};
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(1000 + seed);
    Instance instance;
    ReferenceModel model;
    for (int step = 0; step < 600; ++step) {
      const RelationId rel = static_cast<RelationId>(rng.Uniform(kRelations));
      const std::size_t arity = kArity[rel];
      const std::uint64_t op = rng.Uniform(100);
      if (op < 55) {
        // InsertRow (sometimes via the Fact shim) — return values agree.
        const auto row = RandomRow(rng, arity, 12);
        const std::vector<Value> vals = ToValues(row);
        const bool fresh_model = model.Insert(rel, row);
        bool fresh = false;
        if (rng.Bernoulli(0.25)) {
          fresh = instance.Insert(Fact(rel, vals));
        } else {
          fresh = instance.InsertRow(rel, vals.data(), vals.size());
        }
        EXPECT_EQ(fresh, fresh_model);
      } else if (op < 70) {
        // Batch insert through InsertRows; count of new rows agrees.
        const std::size_t n = 1 + rng.Uniform(6);
        std::vector<Value> batch;
        std::size_t expected_added = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const auto row = RandomRow(rng, arity, 12);
          if (model.Insert(rel, row)) ++expected_added;
          const std::vector<Value> vals = ToValues(row);
          batch.insert(batch.end(), vals.begin(), vals.end());
        }
        EXPECT_EQ(instance.InsertRows(rel, batch.data(), n, arity),
                  expected_added);
      } else if (op < 80) {
        // InsertAll from a random second instance.
        Instance other;
        const std::size_t n = rng.Uniform(8);
        std::vector<std::vector<std::int64_t>> other_rows;
        for (std::size_t i = 0; i < n; ++i) {
          const auto row = RandomRow(rng, arity, 12);
          const std::vector<Value> vals = ToValues(row);
          if (other.InsertRow(rel, vals.data(), vals.size())) {
            other_rows.push_back(row);
          }
        }
        std::size_t expected_added = 0;
        for (const auto& row : other_rows) {
          if (model.Insert(rel, row)) ++expected_added;
        }
        EXPECT_EQ(instance.InsertAll(other), expected_added);
      } else if (op < 90) {
        // Membership of a random (usually absent) row.
        const auto row = RandomRow(rng, arity, 12);
        const std::vector<Value> vals = ToValues(row);
        EXPECT_EQ(instance.ContainsRow(rel, vals.data(), vals.size()),
                  model.Contains(rel, row));
      } else {
        // Exercise the copy path: copies carry the data but rebuild their
        // index caches cold; both must still match the model.
        Instance copy = instance;
        ExpectMatchesModel(copy, model);
      }
      if (step % 97 == 0) ExpectMatchesModel(instance, model);
      if (step % 151 == 0) {
        for (RelationId r = 0; r < kRelations; ++r) {
          const std::size_t arity_r = kArity[r];
          const std::uint64_t mask = 1 + rng.Uniform((1u << arity_r) - 1);
          ExpectIndexMatchesModel(instance, model, r, arity_r, mask);
        }
      }
    }
    ExpectMatchesModel(instance, model);
  }
}

TEST(StorageProperty, EqualityIsInsertionOrderIndependent) {
  Rng rng(7);
  std::vector<std::vector<std::int64_t>> rows;
  for (int i = 0; i < 50; ++i) rows.push_back(RandomRow(rng, 2, 9));
  Instance a;
  Instance b;
  for (const auto& row : rows) {
    const std::vector<Value> vals = ToValues(row);
    a.InsertRow(0, vals.data(), 2);
  }
  std::vector<std::vector<std::int64_t>> shuffled = rows;
  rng.Shuffle(shuffled);
  for (const auto& row : shuffled) {
    const std::vector<Value> vals = ToValues(row);
    b.InsertRow(0, vals.data(), 2);
  }
  EXPECT_TRUE(a == b);
  const std::vector<Value> extra = {Value(100), Value(100)};
  b.InsertRow(0, extra.data(), 2);
  EXPECT_FALSE(a == b);
}

/// An instance and its model holding the same rows.
struct Modelled {
  Instance instance;
  ReferenceModel model;

  void Insert(RelationId rel, const std::vector<std::int64_t>& row) {
    const std::vector<Value> vals = ToValues(row);
    EXPECT_EQ(instance.InsertRow(rel, vals.data(), vals.size()),
              model.Insert(rel, row));
  }
};

/// Checks a.IsSubsetOf(b), a == b, a.Minus(b) and a.SelectRelations(keep)
/// for a few predicates against the model; the Minus and SelectRelations
/// results must hold the model's rows in the model's order.
void ExpectSetOpsMatchModel(const Modelled& a, const Modelled& b) {
  EXPECT_EQ(a.instance.IsSubsetOf(b.instance), a.model.IsSubsetOf(b.model));
  EXPECT_EQ(a.instance == b.instance, a.model == b.model);
  ExpectMatchesModel(a.instance.Minus(b.instance), a.model.Minus(b.model));
  const std::vector<std::function<bool(RelationId)>> predicates = {
      [](RelationId) { return true; },
      [](RelationId) { return false; },
      [](RelationId r) { return r % 2 == 0; },
      [](RelationId r) { return r == 3; },
      [](RelationId r) { return r != 0; },
  };
  for (const auto& keep : predicates) {
    ExpectMatchesModel(a.instance.SelectRelations(keep),
                       a.model.SelectRelations(keep));
  }
}

// Relations of the set-operation test: 0 and 1 on both sides, 2 only in
// a, 4 only in b, 5 nullary, and 3 with arity 2 in a but 3 in b, so a's
// rows of 3 are never members of b.
constexpr RelationId kSetOpRelations = 6;
constexpr std::size_t kArityA[kSetOpRelations] = {2, 1, 3, 2, 0, 0};
constexpr std::size_t kArityB[kSetOpRelations] = {2, 1, 0, 3, 2, 0};
constexpr bool kInA[kSetOpRelations] = {true, true, true, true, false, true};
constexpr bool kInB[kSetOpRelations] = {true, true, false, true, true, true};

/// Random rows of the relations \p present has, \p arity per relation;
/// each relation is left empty with probability 1/4.
Modelled RandomModelled(Rng& rng, const bool* present,
                        const std::size_t* arity) {
  Modelled out;
  for (RelationId rel = 0; rel < kSetOpRelations; ++rel) {
    if (!present[rel] || rng.Bernoulli(0.25)) continue;
    const std::size_t n = arity[rel] == 0 ? 1 : 1 + rng.Uniform(20);
    for (std::size_t i = 0; i < n; ++i) {
      out.Insert(rel, RandomRow(rng, arity[rel], 6));
    }
  }
  return out;
}

TEST(StorageProperty, SetOperationsAgreeWithReferenceModel) {
  const Modelled empty;
  ExpectSetOpsMatchModel(empty, empty);
  EXPECT_TRUE(empty.instance.IsSubsetOf(empty.instance));
  EXPECT_TRUE(empty.instance.Minus(empty.instance).Empty());
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(3000 + seed);
    const Modelled a = RandomModelled(rng, kInA, kArityA);
    const Modelled b = RandomModelled(rng, kInB, kArityB);
    // A superset of a's rows of the relations b can hold, inserted in a
    // shuffled order, plus random extras: a minus its relations 2 and 3
    // is a subset of it.
    Modelled super;
    std::vector<std::pair<RelationId, std::vector<std::int64_t>>> rows;
    for (const auto& [rel, rel_rows] : a.model.rows()) {
      if (rel == 2 || rel == 3) continue;
      for (const auto& row : rel_rows) rows.emplace_back(rel, row);
    }
    rng.Shuffle(rows);
    for (const auto& [rel, row] : rows) super.Insert(rel, row);
    for (std::size_t i = rng.Uniform(5); i > 0; --i) {
      super.Insert(0, RandomRow(rng, 2, 6));
    }
    Modelled a_in_super;
    a_in_super.instance = a.instance.SelectRelations(
        [](RelationId r) { return r != 2 && r != 3; });
    a_in_super.model =
        a.model.SelectRelations([](RelationId r) { return r != 2 && r != 3; });
    EXPECT_TRUE(a_in_super.instance.IsSubsetOf(super.instance));

    const std::vector<const Modelled*> all = {&empty, &a, &b, &super,
                                              &a_in_super};
    for (const Modelled* x : all) {
      for (const Modelled* y : all) {
        ExpectSetOpsMatchModel(*x, *y);
      }
      // An instance against itself: a subset, equal, nothing left over.
      EXPECT_TRUE(x->instance.IsSubsetOf(x->instance));
      EXPECT_TRUE(x->instance == x->instance);
      EXPECT_TRUE(x->instance.Minus(x->instance).Empty());
    }
  }
}

// The set operations only read rows (no join-index cache), so concurrent
// calls on shared instances are safe and agree with a serial run.
TEST(StorageProperty, SetOperationsAreSafeUnderParallelFor) {
  Rng rng(77);
  std::vector<Modelled> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(RandomModelled(rng, kInA, kArityA));
    inputs.push_back(RandomModelled(rng, kInB, kArityB));
  }
  const std::size_t n = inputs.size();
  std::vector<std::uint8_t> subset(n * n, 0);
  std::vector<std::size_t> minus(n * n, 0);
  par::GlobalPool().ParallelFor(0, n * n, [&](std::size_t cell) {
    const Instance& x = inputs[cell / n].instance;
    const Instance& y = inputs[cell % n].instance;
    subset[cell] = x.IsSubsetOf(y) ? 1 : 0;
    minus[cell] = x.Minus(y).Size() +
                  x.SelectRelations([](RelationId r) { return r < 2; }).Size();
  });
  for (std::size_t cell = 0; cell < n * n; ++cell) {
    const ReferenceModel& x = inputs[cell / n].model;
    const ReferenceModel& y = inputs[cell % n].model;
    EXPECT_EQ(subset[cell] == 1, x.IsSubsetOf(y)) << "cell " << cell;
    EXPECT_EQ(minus[cell],
              x.Minus(y).Size() +
                  x.SelectRelations([](RelationId r) { return r < 2; }).Size())
        << "cell " << cell;
  }
}

// Reserve sizes storage only: an instance presized before (or between)
// inserts must behave exactly like an unsized one fed the same rows — the
// same InsertRow answers, row order, membership and IndexOn chains —
// whether the count is below or above the rows that actually arrive.
TEST(StorageProperty, ReserveMatchesAnUnsizedInstance) {
  constexpr std::size_t kArity = 3;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(2000 + seed);
    Instance sized;
    Instance plain;
    const auto insert_both = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::vector<Value> vals = ToValues(RandomRow(rng, kArity, 9));
        ASSERT_EQ(sized.InsertRow(0, vals.data(), kArity),
                  plain.InsertRow(0, vals.data(), kArity));
      }
    };
    // Empty (seeds 0-2) or non-empty (3-5) before the first Reserve.
    insert_both(seed < 3 ? 0 : 5 + rng.Uniform(40));
    for (int wave = 0; wave < 3; ++wave) {
      const std::size_t arriving = rng.Uniform(300);
      // Below (even waves) or above (odd waves) what arrives.
      const std::size_t reserved =
          wave % 2 == 0 ? arriving / 3 : 2 * arriving + 1;
      sized.Reserve(0, reserved, kArity);
      sized.Reserve(7, reserved, 2);  // A relation that stays empty.
      insert_both(arriving);
    }
    ASSERT_EQ(sized.Size(), plain.Size());
    const RowsView a = sized.RowsOf(0);
    const RowsView b = plain.RowsOf(0);
    ASSERT_EQ(a.num_rows, b.num_rows);
    for (std::size_t i = 0; i < a.num_rows * kArity; ++i) {
      ASSERT_EQ(a.data[i].v, b.data[i].v) << "value " << i;
    }
    EXPECT_EQ(sized.NumRows(7), 0u);
    for (int probe = 0; probe < 200; ++probe) {
      const std::vector<Value> vals = ToValues(RandomRow(rng, kArity, 10));
      EXPECT_EQ(sized.ContainsRow(0, vals.data(), kArity),
                plain.ContainsRow(0, vals.data(), kArity));
    }
    for (std::uint64_t mask = 1; mask < (1u << kArity); ++mask) {
      const JoinIndex& x = sized.IndexOn(0, mask);
      const JoinIndex& y = plain.IndexOn(0, mask);
      EXPECT_EQ(x.head, y.head) << "mask " << mask;
      EXPECT_EQ(x.next, y.next) << "mask " << mask;
    }
  }
}

TEST(StorageProperty, ReserveKeepsTheArityCheck) {
  const std::vector<Value> pair = {Value(1), Value(2)};
  const std::vector<Value> triple = {Value(1), Value(2), Value(3)};
  // An empty relation takes the arity of its first row, presized or not.
  Instance fresh;
  fresh.Reserve(0, 10, 2);
  EXPECT_TRUE(fresh.InsertRow(0, triple.data(), 3));
  Instance instance;
  instance.InsertRow(0, pair.data(), 2);
  instance.Reserve(0, 10, 2);
  EXPECT_DEATH(instance.InsertRow(0, triple.data(), 3), "arity");
  EXPECT_DEATH(instance.Reserve(0, 10, 3), "arity");
}

// Every size of the dedup slot table: rows arrive one at a time (every
// tenth a repeat of a present row), and after each insert every present
// row is found — by ContainsRow and by a re-insert that must return false
// — and a fixed set of absent rows is not. 1000 inserts cross every growth
// boundary up to 2048 slots, and random hashes put probe runs across the
// end of the table, so a probe that stops early or mishandles the wrap
// fails here.
TEST(StorageProperty, EveryTableSizeFindsPresentRowsAndNoAbsentOnes) {
  for (std::size_t arity = 0; arity <= 4; ++arity) {
    Rng rng(700 + arity);
    std::vector<std::vector<Value>> absent;
    // Inserted rows hold no negative value.
    for (std::int64_t k = 0; arity != 0 && k < 64; ++k) {
      std::vector<Value> row;
      for (std::size_t i = 0; i < arity; ++i) {
        row.push_back(Value(-1 - k * static_cast<std::int64_t>(arity) -
                            static_cast<std::int64_t>(i)));
      }
      absent.push_back(std::move(row));
    }
    Instance instance;
    ReferenceModel model;
    std::vector<std::vector<Value>> present;
    for (int step = 1; step <= 1000; ++step) {
      std::vector<std::int64_t> row = RandomRow(rng, arity, 1 << 16);
      if (step % 10 == 0) {
        const std::vector<Value>& old = present[rng.Uniform(present.size())];
        for (std::size_t i = 0; i < arity; ++i) row[i] = old[i].v;
      }
      const std::vector<Value> vals = ToValues(row);
      const bool added = model.Insert(0, row);
      ASSERT_EQ(instance.InsertRow(0, vals.data(), arity), added)
          << "arity " << arity << " step " << step;
      if (added) present.push_back(vals);
      ASSERT_EQ(instance.Size(), present.size());
      for (const std::vector<Value>& p : present) {
        ASSERT_TRUE(instance.ContainsRow(0, p.data(), arity))
            << "arity " << arity << " step " << step;
        ASSERT_FALSE(instance.InsertRow(0, p.data(), arity))
            << "arity " << arity << " step " << step;
      }
      for (const std::vector<Value>& a : absent) {
        ASSERT_FALSE(instance.ContainsRow(0, a.data(), arity))
            << "arity " << arity << " step " << step;
      }
      ASSERT_EQ(instance.Size(), present.size());
    }
  }
}

// ------------------------------------------------- digest parity --

// FNV-1a accumulator (determinism_test.cc's): order-sensitive, so any
// change in dedup decisions or iteration order shows up.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  }
};

std::uint64_t InstanceFingerprint(const Instance& instance) {
  Fnv f;
  instance.ForEachFact([&](const Fact& fact) {
    f.Mix(HashMix(fact.relation));
    f.Mix(fact.args.size());
    for (Value v : fact.args) f.Mix(static_cast<std::uint64_t>(v.v));
  });
  return f.h;
}

class EnvRestorer {
 public:
  ~EnvRestorer() {
    transport::SetActiveKind(transport::TransportKind::kInProcess);
    par::SetDefaultThreads(1);
  }
};

std::uint64_t TriangleOutputFingerprint() {
  Schema schema;
  const ConjunctiveQuery q =
      ParseQuery(schema, "H(x,y,z) <- R0(x,y), R1(y,z), R2(z,x)");
  Rng rng(23);
  Instance db;
  for (const Atom& atom : q.body()) {
    AddUniformRelation(schema, atom.relation, /*m=*/300, /*domain_size=*/30,
                       rng, db);
  }
  const MpcRunResult run = RunHyperCubeUniform(q, db, /*num_servers=*/8);
  return InstanceFingerprint(run.output);
}

TEST(StorageDigestParity, SameDigestAcrossThreadsAndTransports) {
  EnvRestorer restore;
  constexpr transport::TransportKind kBackends[] = {
      transport::TransportKind::kInProcess,
      transport::TransportKind::kTcp,
  };
  par::SetDefaultThreads(1);
  transport::SetActiveKind(transport::TransportKind::kInProcess);
  const std::uint64_t reference = TriangleOutputFingerprint();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const transport::TransportKind backend : kBackends) {
      par::SetDefaultThreads(threads);
      transport::SetActiveKind(backend);
      EXPECT_EQ(TriangleOutputFingerprint(), reference)
          << "threads=" << threads
          << " backend=" << static_cast<int>(backend);
    }
  }
}

}  // namespace
}  // namespace lamp
