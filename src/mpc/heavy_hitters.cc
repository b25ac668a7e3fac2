#include "mpc/heavy_hitters.h"

#include <algorithm>
#include <vector>

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
  const RowsView rows = instance.RowsOf(relation);
  LAMP_CHECK(rows.num_rows == 0 || column < rows.arity);
  std::vector<Value> values(rows.num_rows);
  for (std::size_t i = 0; i < rows.num_rows; ++i) {
    values[i] = rows.Row(i)[column];
  }
  std::sort(values.begin(), values.end());
  // Equal values are adjacent now: count each run, keep the heavy ones.
  std::set<Value> heavy;
  for (std::size_t i = 0; i < values.size();) {
    std::size_t end = i + 1;
    while (end < values.size() && values[end] == values[i]) ++end;
    if (end - i > threshold) heavy.insert(heavy.end(), values[i]);
    i = end;
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
