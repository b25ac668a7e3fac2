#include "relational/instance.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "common/check.h"
#include "common/hash.h"

namespace lamp {

namespace {

/// Returns \p values if already sorted, otherwise a sorted+deduped copy in
/// \p scratch. Lets Touching accept unsorted literals while the
/// common caller (ActiveDomain output) pays no copy.
const std::vector<Value>& SortedView(const std::vector<Value>& values,
                                     std::vector<Value>& scratch) {
  if (std::is_sorted(values.begin(), values.end())) return values;
  scratch = values;
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  return scratch;
}

bool SortedContains(const std::vector<Value>& sorted, Value v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

}  // namespace

std::uint64_t Instance::HashRow(const Value* row, std::size_t arity) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < arity; ++i) {
    h = HashCombine(h, static_cast<std::uint64_t>(row[i].v));
  }
  return h;
}

void Instance::Rehash(Column& c, std::size_t new_slots) {
  c.slots.assign(new_slots, 0);
  const std::size_t mask = new_slots - 1;
  const Value* row = c.data.data();
  for (std::size_t id = 0; id < c.num_rows; ++id, row += c.arity) {
    std::size_t i = static_cast<std::size_t>(HashRow(row, c.arity)) & mask;
    while (c.slots[i] != 0) i = (i + 1) & mask;
    c.slots[i] = static_cast<std::uint32_t>(id) + 1;
  }
}

std::size_t Instance::SlotsFor(const Column& c, std::size_t rows) {
  // The one load factor: at most 3/4 of the slots hold a row, so a probe
  // always ends at an empty slot and failed probes stay short.
  std::size_t slots = c.slots.size();
  while (rows * 4 > slots * 3) slots = std::max<std::size_t>(16, slots * 2);
  return slots;
}

std::size_t Instance::FindSlot(const Column& c, const Value* row,
                               std::uint64_t hash, bool* found) {
  const std::size_t mask = c.slots.size() - 1;
  const std::size_t arity = c.arity;
  const Value* data = c.data.data();
  for (std::size_t i = static_cast<std::size_t>(hash) & mask;;
       i = (i + 1) & mask) {
    const std::uint32_t slot = c.slots[i];
    if (slot == 0) {
      *found = false;
      return i;
    }
    const Value* other = data + (slot - 1) * arity;
    std::size_t k = 0;
    while (k < arity && other[k] == row[k]) ++k;
    if (k == arity) {
      *found = true;
      return i;
    }
  }
}

void Instance::Reserve(RelationId relation, std::size_t rows,
                       std::size_t arity) {
  if (rows == 0) return;
  if (relation >= by_relation_.size()) by_relation_.resize(relation + 1);
  Column& c = by_relation_[relation];
  if (c.num_rows != 0) {
    LAMP_CHECK_MSG(arity == c.arity,
                   "all rows of a relation must share one arity");
  }
  // The capacity doubling from the current one (or from one row) reaches,
  // so presized and grown columns hold the same memory.
  const std::size_t total = c.num_rows + rows;
  std::size_t capacity = c.data.capacity() != 0 ? c.data.capacity() : arity;
  while (capacity < total * arity) capacity *= 2;
  c.data.reserve(capacity);
  const std::size_t slots = SlotsFor(c, total);
  if (slots != c.slots.size()) Rehash(c, slots);
}

bool Instance::InsertRow(RelationId relation, const Value* row,
                         std::size_t arity) {
  return InsertRowsImpl(relation, row, 1, arity, nullptr) == 1;
}

bool Instance::ContainsRow(RelationId relation, const Value* row,
                           std::size_t arity) const {
  if (relation >= by_relation_.size()) return false;
  const Column& c = by_relation_[relation];
  if (c.num_rows == 0 || arity != c.arity) return false;
  bool found;
  FindSlot(c, row, HashRow(row, arity), &found);
  return found;
}

std::size_t Instance::InsertAll(const Instance& other) {
  std::size_t added = 0;
  for (RelationId r = 0; r < other.by_relation_.size(); ++r) {
    const Column& c = other.by_relation_[r];
    if (c.num_rows == 0) continue;
    // \p other is a set, so an empty relation here takes exactly its rows.
    if (NumRows(r) == 0) Reserve(r, c.num_rows, c.arity);
    added += InsertRowsImpl(r, c.data.data(), c.num_rows, c.arity, nullptr);
  }
  return added;
}

std::size_t Instance::InsertRows(RelationId relation, const Value* rows,
                                 std::size_t count, std::size_t arity) {
  return InsertRowsImpl(relation, rows, count, arity, nullptr);
}

std::size_t Instance::InsertRowsInto(RelationId relation, const Value* rows,
                                     std::size_t count, std::size_t arity,
                                     Instance& mirror) {
  return InsertRowsImpl(relation, rows, count, arity, &mirror);
}

std::size_t Instance::InsertRowsImpl(RelationId relation, const Value* rows,
                                     std::size_t count, std::size_t arity,
                                     Instance* mirror) {
  if (count == 0) return 0;
  if (relation >= by_relation_.size()) by_relation_.resize(relation + 1);
  Column& c = by_relation_[relation];
  if (c.num_rows == 0) {
    c.arity = static_cast<std::uint32_t>(arity);
  } else {
    LAMP_CHECK_MSG(arity == c.arity,
                   "all rows of a relation must share one arity");
  }

  // The table grows before each probe, duplicate or not, so a batch takes
  // the growth trajectory of that many single inserts.
  std::size_t added = 0;
  const Value* row = rows;
  for (std::size_t t = 0; t < count; ++t, row += arity) {
    const std::size_t slots = SlotsFor(c, c.num_rows + 1);
    if (slots != c.slots.size()) Rehash(c, slots);
    bool found;
    const std::size_t i = FindSlot(c, row, HashRow(row, arity), &found);
    if (found) continue;  // Duplicate (set semantics).
    c.slots[i] = static_cast<std::uint32_t>(c.num_rows) + 1;
    c.data.insert(c.data.end(), row, row + arity);
    ++c.num_rows;
    ++added;
    if (mirror != nullptr) mirror->InsertRow(relation, row, arity);
  }
  size_ += added;
  return added;
}

const JoinIndex& Instance::IndexOn(RelationId relation, std::uint64_t mask,
                                   std::size_t* rows_indexed) const {
  if (indexes_.size() < by_relation_.size()) {
    indexes_.resize(by_relation_.size());
  }
  LAMP_CHECK(relation < by_relation_.size());
  auto& per_relation = indexes_[relation];
  JoinIndex* index = nullptr;
  for (auto& [m, idx] : per_relation) {
    if (m == mask) {
      index = idx.get();
      break;
    }
  }
  if (index == nullptr) {
    per_relation.emplace_back(mask, std::make_unique<JoinIndex>());
    index = per_relation.back().second.get();
    for (std::size_t pos = 0; pos < 64; ++pos) {
      if ((mask >> pos) & 1) {
        index->key_pos.push_back(static_cast<std::uint32_t>(pos));
      }
    }
  }

  const Column& c = by_relation_[relation];
  if (index->built_rows == c.num_rows) return *index;

  std::size_t slots = index->head.empty() ? 16 : index->head.size();
  while (slots < c.num_rows * 2) slots *= 2;
  if (slots != index->head.size()) {
    // Grown past the table's load limit: rebuild from row 0. The rebuild
    // cost amortises over the appends that caused it.
    index->head.assign(slots, 0);
    index->tail.assign(slots, 0);
    index->next.assign(c.num_rows, 0);
    index->built_rows = 0;
  } else {
    index->next.resize(c.num_rows, 0);
  }

  const std::size_t slot_mask = slots - 1;
  const Value* row = c.data.data() + index->built_rows * c.arity;
  for (std::size_t id = index->built_rows; id < c.num_rows;
       ++id, row += c.arity) {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint32_t pos : index->key_pos) {
      h = HashCombine(h, static_cast<std::uint64_t>(row[pos].v));
    }
    const std::size_t slot = static_cast<std::size_t>(h) & slot_mask;
    const std::uint32_t link = static_cast<std::uint32_t>(id) + 1;
    if (index->head[slot] == 0) {
      index->head[slot] = link;
    } else {
      index->next[index->tail[slot] - 1] = link;
    }
    index->tail[slot] = link;
  }
  if (rows_indexed != nullptr) {
    *rows_indexed += c.num_rows - index->built_rows;
  }
  index->built_rows = c.num_rows;
  return *index;
}

std::vector<Fact> Instance::AllFacts() const {
  std::vector<Fact> out;
  out.reserve(size_);
  ForEachFact([&out](const Fact& f) { out.push_back(f); });
  return out;
}

std::vector<Value> Instance::ActiveDomain() const {
  std::vector<Value> dom;
  for (const Column& c : by_relation_) {
    dom.insert(dom.end(), c.data.begin(),
               c.data.begin() +
                   static_cast<std::ptrdiff_t>(c.num_rows * c.arity));
  }
  std::sort(dom.begin(), dom.end());
  dom.erase(std::unique(dom.begin(), dom.end()), dom.end());
  return dom;
}

Instance Instance::Touching(const std::vector<Value>& values) const {
  std::vector<Value> scratch;
  const std::vector<Value>& sorted = SortedView(values, scratch);
  Instance out;
  for (RelationId r = 0; r < by_relation_.size(); ++r) {
    const Column& c = by_relation_[r];
    const Value* row = c.data.data();
    for (std::size_t i = 0; i < c.num_rows; ++i, row += c.arity) {
      bool touches = false;
      for (std::size_t j = 0; j < c.arity; ++j) {
        if (SortedContains(sorted, row[j])) {
          touches = true;
          break;
        }
      }
      if (touches) out.InsertRow(r, row, c.arity);
    }
  }
  return out;
}

std::vector<Instance> Instance::Components() const {
  // Union-find over facts (global row ids in AllFacts order), merging
  // facts that share a value.
  struct RowRef {
    RelationId relation;
    const Value* row;
    std::uint32_t arity;
  };
  std::vector<RowRef> rows;
  rows.reserve(size_);
  for (RelationId r = 0; r < by_relation_.size(); ++r) {
    const Column& c = by_relation_[r];
    const Value* row = c.data.data();
    for (std::size_t i = 0; i < c.num_rows; ++i, row += c.arity) {
      rows.push_back(RowRef{r, row, c.arity});
    }
  }

  std::vector<std::size_t> parent(rows.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});

  auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&parent, &find](std::size_t a, std::size_t b) {
    parent[find(a)] = find(b);
  };

  std::map<Value, std::size_t> first_owner;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::uint32_t j = 0; j < rows[i].arity; ++j) {
      auto [it, inserted] = first_owner.emplace(rows[i].row[j], i);
      if (!inserted) unite(i, it->second);
    }
  }

  std::map<std::size_t, Instance> groups;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    groups[find(i)].InsertRow(rows[i].relation, rows[i].row, rows[i].arity);
  }
  std::vector<Instance> out;
  out.reserve(groups.size());
  for (auto& [root, inst] : groups) out.push_back(std::move(inst));
  return out;
}

Instance RoundRobinPart(const Instance& global, std::size_t part,
                        std::size_t num_parts) {
  LAMP_CHECK(part < num_parts);
  Instance out;
  std::size_t start = 0;  // Global index of the relation's first row.
  for (RelationId rel = 0; rel < global.NumRelationIds(); ++rel) {
    const RowsView rows = global.RowsOf(rel);
    // The relation's first row dealt to this part, then every num_parts-th.
    const std::size_t first = (part + num_parts - start % num_parts) %
                              num_parts;
    start += rows.num_rows;
    if (first >= rows.num_rows) continue;
    out.Reserve(rel, (rows.num_rows - first - 1) / num_parts + 1, rows.arity);
    for (std::size_t r = first; r < rows.num_rows; r += num_parts) {
      out.InsertRow(rel, rows.Row(r), rows.arity);
    }
  }
  return out;
}

bool Instance::IsSubsetOf(const Instance& other) const {
  for (RelationId r = 0; r < by_relation_.size(); ++r) {
    const Column& c = by_relation_[r];
    const Value* row = c.data.data();
    for (std::size_t i = 0; i < c.num_rows; ++i, row += c.arity) {
      if (!other.ContainsRow(r, row, c.arity)) return false;
    }
  }
  return true;
}

Instance Instance::Minus(const Instance& other) const {
  Instance out;
  for (RelationId r = 0; r < by_relation_.size(); ++r) {
    const Column& c = by_relation_[r];
    const Value* row = c.data.data();
    for (std::size_t i = 0; i < c.num_rows; ++i, row += c.arity) {
      if (!other.ContainsRow(r, row, c.arity)) out.InsertRow(r, row, c.arity);
    }
  }
  return out;
}

bool operator==(const Instance& a, const Instance& b) {
  return a.size_ == b.size_ && a.IsSubsetOf(b);
}

std::string Instance::ToString(const Schema& schema) const {
  std::vector<Fact> facts = AllFacts();
  std::sort(facts.begin(), facts.end());
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) os << ", ";
    os << FactToString(schema, facts[i]);
  }
  os << "}";
  return os.str();
}

}  // namespace lamp
