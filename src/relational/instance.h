#ifndef LAMP_RELATIONAL_INSTANCE_H_
#define LAMP_RELATIONAL_INSTANCE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "relational/fact.h"
#include "relational/value.h"

/// \file
/// Database instances: finite sets of facts (Section 2 of the paper), with
/// the instance-level operations the surveyed results need — active domain,
/// restriction to a value set (I|C, Lemma 5.7), and connected components
/// (Lemma 5.11).
///
/// Storage layout (DESIGN.md "Storage layout"): instances are *column
/// major*. Each relation owns one flat arity-strided `std::vector<Value>`
/// of rows plus an open-addressing hash index of row ids — no per-fact
/// heap allocation and no duplicate fact storage. Hot paths use the row
/// API (`RowsOf`, `NumRows`, `InsertRow`, `ContainsRow`, `ForEachRow`) and
/// touch the flat storage directly. The `Fact`-shaped accessors
/// (`AllFacts`, `ForEachFact`, `ForEachFactOf`) materialise facts on the
/// fly for parsers, tests and fact-at-a-time callers; they stay because
/// the end-to-end benchmark (benchmark/lamp_benchmark.cc) calls them. Iteration order within a relation is insertion order, which
/// keeps runs deterministic and digests byte-identical to the row-oriented
/// predecessor.

namespace lamp {

/// A borrowed, read-only view of one relation's rows: `num_rows` rows of
/// `arity` values each, row-major in one contiguous buffer. Valid while
/// the owning instance is not mutated.
struct RowsView {
  RelationId relation = 0;
  std::size_t arity = 0;
  std::size_t num_rows = 0;
  const Value* data = nullptr;

  const Value* Row(std::size_t i) const { return data + i * arity; }
  std::size_t size() const { return num_rows; }
  bool empty() const { return num_rows == 0; }
};

/// A persistent hash index of one relation's rows keyed on a subset of
/// column positions (bit p of the position mask selects position p).
/// Bucket chains are threaded through `head`/`next` in ascending row id
/// order (head[slot] and next[row] hold row id + 1; 0 terminates), so a
/// probe enumerates matching rows in insertion order. The slot of a key is
/// `hash & (head.size() - 1)` where hash folds the key values (ascending
/// position order) into the FNV-1a offset basis via HashCombine — rows
/// with different keys may share a chain, so probes compare key positions.
struct JoinIndex {
  std::vector<std::uint32_t> key_pos;  // Masked positions, ascending.
  std::vector<std::uint32_t> head;     // slot -> first row id + 1.
  std::vector<std::uint32_t> tail;     // slot -> last row id + 1.
  std::vector<std::uint32_t> next;     // row id -> next row id + 1.
  std::size_t built_rows = 0;          // Rows covered so far.

  std::size_t SlotMask() const { return head.size() - 1; }
};

/// A finite set of facts grouped by relation. Duplicate inserts are ignored
/// (set semantics). Iteration order within a relation is insertion order,
/// which keeps runs deterministic.
class Instance {
 public:
  Instance() = default;

  /// Copies carry the column data but start with a cold join-index cache;
  /// moves carry the cache along.
  Instance(const Instance& other)
      : by_relation_(other.by_relation_), size_(other.size_) {}
  Instance& operator=(const Instance& other) {
    by_relation_ = other.by_relation_;
    size_ = other.size_;
    indexes_.clear();
    return *this;
  }
  Instance(Instance&&) = default;
  Instance& operator=(Instance&&) = default;

  /// Inserts a fact; returns true if it was new.
  bool Insert(const Fact& fact) {
    return InsertRow(fact.relation, fact.args.data(), fact.args.size());
  }

  /// Inserts the row R(row[0..arity)) for relation \p relation; returns
  /// true if it was new. All rows of one relation must share one arity
  /// (checked).
  bool InsertRow(RelationId relation, const Value* row, std::size_t arity);

  /// Inserts every fact of \p other; returns the number of new facts.
  std::size_t InsertAll(const Instance& other);

  /// Batch insert of \p count rows of \p arity values each (row-major,
  /// contiguous). Behaves exactly like \p count InsertRow calls — same
  /// dedup, same growth trajectory, same resulting row order — but hoists
  /// the per-call relation lookup out of the loop. Returns the number of
  /// rows that were new.
  std::size_t InsertRows(RelationId relation, const Value* rows,
                         std::size_t count, std::size_t arity);

  /// Like InsertRows, but every row that was new here is also inserted
  /// into \p mirror under the same relation (the semi-naive fused
  /// containment+insert sink: `mirror` collects the next delta).
  std::size_t InsertRowsInto(RelationId relation, const Value* rows,
                             std::size_t count, std::size_t arity,
                             Instance& mirror);

  /// Membership test.
  bool Contains(const Fact& fact) const {
    return ContainsRow(fact.relation, fact.args.data(), fact.args.size());
  }

  /// Row-level membership test. Rows of a different arity than the
  /// relation's are never members.
  bool ContainsRow(RelationId relation, const Value* row,
                   std::size_t arity) const;

  /// Total number of facts.
  std::size_t Size() const { return size_; }

  bool Empty() const { return size_ == 0; }

  /// Rows of one relation as a borrowed columnar view (empty view if the
  /// relation never occurred). Valid while the instance is not mutated.
  RowsView RowsOf(RelationId relation) const {
    if (relation >= by_relation_.size()) return RowsView{relation, 0, 0,
                                                         nullptr};
    const Column& c = by_relation_[relation];
    return RowsView{relation, c.arity, c.num_rows, c.data.data()};
  }

  /// One past the largest relation id this instance has storage for;
  /// relation ids at or beyond the bound are empty. Lets callers sweep all
  /// relations with RowsOf in ascending (= ForEachFact) order.
  RelationId RelationBound() const {
    return static_cast<RelationId>(by_relation_.size());
  }

  /// Number of rows of one relation.
  std::size_t NumRows(RelationId relation) const {
    return relation < by_relation_.size() ? by_relation_[relation].num_rows
                                          : 0;
  }

  /// Arity of one relation's rows (0 when the relation has no rows).
  std::size_t ArityOf(RelationId relation) const {
    return relation < by_relation_.size() ? by_relation_[relation].arity : 0;
  }

  /// All facts, in (relation, insertion) order. Materialises a copy —
  /// hot paths iterate with ForEachFact / ForEachRow instead.
  std::vector<Fact> AllFacts() const;

  /// Calls visit(fact) for every fact in (relation, insertion) order —
  /// the AllFacts order — without allocating per fact (one scratch fact is
  /// reused across the whole sweep). The reference passed to the visitor
  /// is only valid for the duration of that visit call; visitors that
  /// retain facts must copy them.
  template <typename Visitor>
  void ForEachFact(Visitor&& visit) const {
    Fact scratch;
    for (RelationId r = 0; r < by_relation_.size(); ++r) {
      const Column& c = by_relation_[r];
      if (c.num_rows == 0) continue;
      scratch.relation = r;
      scratch.args.resize(c.arity);
      const Value* row = c.data.data();
      for (std::size_t i = 0; i < c.num_rows; ++i, row += c.arity) {
        if (c.arity != 0) {
          std::memcpy(scratch.args.data(), row, c.arity * sizeof(Value));
        }
        visit(const_cast<const Fact&>(scratch));
      }
    }
  }

  /// Calls visit(fact) for every fact of \p relation in insertion order,
  /// reusing one scratch fact (same lifetime contract as ForEachFact).
  template <typename Visitor>
  void ForEachFactOf(RelationId relation, Visitor&& visit) const {
    const RowsView rows = RowsOf(relation);
    if (rows.num_rows == 0) return;
    Fact scratch;
    scratch.relation = relation;
    scratch.args.resize(rows.arity);
    const Value* row = rows.data;
    for (std::size_t i = 0; i < rows.num_rows; ++i, row += rows.arity) {
      if (rows.arity != 0) {
        std::memcpy(scratch.args.data(), row, rows.arity * sizeof(Value));
      }
      visit(const_cast<const Fact&>(scratch));
    }
  }

  /// Calls visit(row) — row a `const Value*` of the relation's arity — for
  /// every row of \p relation in insertion order, straight off the flat
  /// storage.
  template <typename Visitor>
  void ForEachRow(RelationId relation, Visitor&& visit) const {
    const RowsView rows = RowsOf(relation);
    const Value* row = rows.data;
    for (std::size_t i = 0; i < rows.num_rows; ++i, row += rows.arity) {
      visit(row);
    }
  }

  /// Removes every row of \p relation (its arity is forgotten too). Used
  /// by the semi-naive evaluator to re-tag delta relations in place.
  void ClearRelation(RelationId relation);

  /// The join index of \p relation keyed on the positions of \p mask,
  /// built on first use and extended incrementally as rows are appended —
  /// repeated evaluations over a growing relation pay for each row once,
  /// not once per evaluation. When \p rows_indexed is non-null it is
  /// incremented by the number of rows swept into the index by this call.
  ///
  /// The returned reference is valid until the next call that mutates this
  /// instance. The cache is NOT thread-safe: concurrent evaluation must
  /// use distinct Instance objects (as the parallel callers in
  /// distribution/ and cq/ do — each lane evaluates its own copy).
  const JoinIndex& IndexOn(RelationId relation, std::uint64_t mask,
                           std::size_t* rows_indexed = nullptr) const;

  /// One past the largest RelationId ever inserted (the range a
  /// per-relation sweep has to cover).
  RelationId NumRelationIds() const {
    return static_cast<RelationId>(by_relation_.size());
  }

  /// adom(I): the values occurring in some fact, sorted ascending and
  /// deduplicated.
  std::vector<Value> ActiveDomain() const;

  /// I|C = { f in I : adom(f) subseteq C } (Lemma 5.7 of the paper).
  /// \p values need not be sorted; membership is decided by binary search
  /// over a sorted copy (made only when the input is unsorted).
  Instance RestrictTo(const std::vector<Value>& values) const;

  /// Facts whose argument set intersects \p values (same contract as
  /// RestrictTo).
  Instance Touching(const std::vector<Value>& values) const;

  /// The connected components of I: J is a component when J is a minimal
  /// nonempty subset with adom(J) disjoint from adom(I \ J)
  /// (Section 5.2.2 of the paper). Facts with no arguments (nullary facts)
  /// each form their own component.
  std::vector<Instance> Components() const;

  /// Set equality (independent of insertion order).
  friend bool operator==(const Instance& a, const Instance& b);

  /// Renders the instance as "{R(1,2), S(3)}" sorted for stable output.
  std::string ToString(const Schema& schema) const;

 private:
  /// Column-major storage of one relation: `num_rows` rows of `arity`
  /// values each in `data` (row-major, contiguous) and an open-addressing
  /// hash table of row ids (`slots` holds row_id + 1; 0 = empty slot;
  /// capacity is a power of two).
  struct Column {
    std::uint32_t arity = 0;
    std::size_t num_rows = 0;
    std::vector<Value> data;
    std::vector<std::uint32_t> slots;
  };

  static std::uint64_t HashRow(const Value* row, std::size_t arity);
  static void Rehash(Column& c, std::size_t new_slots);
  std::size_t InsertRowsImpl(RelationId relation, const Value* rows,
                             std::size_t count, std::size_t arity,
                             Instance* mirror);

  std::vector<Column> by_relation_;
  std::size_t size_ = 0;

  /// Lazily built join indexes per (relation, position mask). unique_ptr
  /// keeps returned references stable while the per-relation list grows.
  /// Mutable: indexes are a cache over logically-const data, built and
  /// extended on demand from const evaluation paths.
  mutable std::vector<std::vector<
      std::pair<std::uint64_t, std::unique_ptr<JoinIndex>>>>
      indexes_;
};

}  // namespace lamp

#endif  // LAMP_RELATIONAL_INSTANCE_H_
