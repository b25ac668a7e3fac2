#include "mapreduce/mapreduce.h"

#include <algorithm>

namespace lamp {

std::size_t MapReduceStats::MaxGroupSize() const {
  if (group_sizes.empty()) return 0;
  return *std::max_element(group_sizes.begin(), group_sizes.end());
}

namespace {

/// One shuffled pair: a key and a borrowed reference to the mapped row
/// (RunJob never mutates its input, so the row stays valid).
struct KeyedRow {
  std::uint64_t key = 0;
  transport::RowRef row;
};

}  // namespace

Instance RunJob(const MapReduceJob& job, const Instance& input,
                MapReduceStats* stats) {
  // Map stage: every row in (relation, insertion) order.
  std::vector<KeyedRow> pairs;
  std::vector<std::uint64_t> keys;
  for (RelationId r = 0; r < input.NumRelationIds(); ++r) {
    const RowsView rows = input.RowsOf(r);
    const auto arity = static_cast<std::uint32_t>(rows.arity);
    for (std::size_t i = 0; i < rows.num_rows; ++i) {
      const transport::RowRef row{r, rows.Row(i), arity};
      keys.clear();
      job.map(row, keys);
      for (const std::uint64_t key : keys) pairs.push_back({key, row});
    }
  }

  // Shuffle: group by key, ascending, keeping each group in map order.
  // Dense keys (the common case for join keys drawn from a small active
  // domain) take a counting sort, which is stable by construction; sparse
  // keys fall back to stable_sort.
  std::uint64_t max_key = 0;
  for (const KeyedRow& p : pairs) max_key = std::max(max_key, p.key);
  if (!pairs.empty() && max_key <= pairs.size() * 4 + 1024) {
    std::vector<std::size_t> offsets(max_key + 2, 0);
    for (const KeyedRow& p : pairs) ++offsets[p.key + 1];
    for (std::size_t k = 1; k < offsets.size(); ++k) {
      offsets[k] += offsets[k - 1];
    }
    std::vector<KeyedRow> sorted(pairs.size());
    for (const KeyedRow& p : pairs) sorted[offsets[p.key]++] = p;
    pairs.swap(sorted);
  } else {
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const KeyedRow& a, const KeyedRow& b) {
                       return a.key < b.key;
                     });
  }
  std::vector<transport::RowRef> grouped(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) grouped[i] = pairs[i].row;

  // Reduce stage: rho once per group.
  Instance output;
  MapReduceStats local;
  local.pairs_shuffled = pairs.size();
  for (std::size_t i = 0; i < pairs.size();) {
    std::size_t j = i;
    while (j < pairs.size() && pairs[j].key == pairs[i].key) ++j;
    local.group_sizes.push_back(j - i);
    job.reduce(pairs[i].key,
               std::span<const transport::RowRef>(grouped).subspan(i, j - i),
               output);
    i = j;
  }
  if (stats != nullptr) *stats = std::move(local);
  return output;
}

}  // namespace lamp
