#include "mpc/heavy_hitters.h"

#include "common/check.h"

namespace lamp {

std::map<Value, std::size_t> ColumnFrequencies(const Instance& instance,
                                               RelationId relation,
                                               std::size_t column) {
  std::map<Value, std::size_t> freq;
  const RowsView rows = instance.RowsOf(relation);
  LAMP_CHECK(rows.num_rows == 0 || column < rows.arity);
  for (std::size_t i = 0; i < rows.num_rows; ++i) ++freq[rows.Row(i)[column]];
  return freq;
}

std::set<Value> HeavyHitters(const Instance& instance, RelationId relation,
                             std::size_t column, std::size_t threshold) {
  std::set<Value> heavy;
  for (const auto& [value, count] :
       ColumnFrequencies(instance, relation, column)) {
    if (count > threshold) heavy.insert(value);
  }
  return heavy;
}

std::set<Value> JoinHeavyHitters(const Instance& instance, RelationId left,
                                 std::size_t left_column, RelationId right,
                                 std::size_t right_column,
                                 std::size_t threshold) {
  std::set<Value> heavy = HeavyHitters(instance, left, left_column, threshold);
  const std::set<Value> more =
      HeavyHitters(instance, right, right_column, threshold);
  heavy.insert(more.begin(), more.end());
  return heavy;
}

}  // namespace lamp
