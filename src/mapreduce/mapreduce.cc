#include "mapreduce/mapreduce.h"

#include <algorithm>

namespace lamp {

std::size_t MapReduceStats::MaxGroupSize() const {
  if (group_sizes.empty()) return 0;
  return *std::max_element(group_sizes.begin(), group_sizes.end());
}

namespace {

/// Columnar execution: shuffle borrowed row references through one flat
/// vector, stable-sorted by key. Stable sort keeps within-key entries in
/// emission order and sorts groups ascending — exactly the grouping the
/// std::map path produces — so stats and output are byte-identical.
Instance RunJobColumnar(const MapReduceJob& job, const Instance& input,
                        MapReduceStats* stats) {
  std::vector<RowEntry> entries;
  for (RelationId r = 0; r < input.NumRelationIds(); ++r) {
    const RowsView rows = input.RowsOf(r);
    const Value* row = rows.data;
    for (std::size_t i = 0; i < rows.num_rows; ++i, row += rows.arity) {
      job.map_rows(r, row, rows.arity, entries);
    }
  }
  // Group by key, ascending, keeping within-key entries in emission order
  // — the grouping the std::map path produces. Dense keys (the common case
  // for join keys drawn from a small active domain) take a counting sort,
  // which is stable by construction; sparse keys fall back to stable_sort.
  std::uint64_t max_key = 0;
  for (const RowEntry& e : entries) max_key = std::max(max_key, e.key);
  if (!entries.empty() && max_key <= entries.size() * 4 + 1024) {
    std::vector<std::size_t> offsets(max_key + 2, 0);
    for (const RowEntry& e : entries) ++offsets[e.key + 1];
    for (std::size_t k = 1; k < offsets.size(); ++k) {
      offsets[k] += offsets[k - 1];
    }
    std::vector<RowEntry> sorted(entries.size());
    for (const RowEntry& e : entries) sorted[offsets[e.key]++] = e;
    entries.swap(sorted);
  } else {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const RowEntry& a, const RowEntry& b) {
                       return a.key < b.key;
                     });
  }

  Instance output;
  MapReduceStats local;
  local.pairs_shuffled = entries.size();
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    while (j < entries.size() && entries[j].key == entries[i].key) ++j;
    local.group_sizes.push_back(j - i);
    job.reduce_rows(entries[i].key, entries.data() + i, j - i, output);
    i = j;
  }
  if (stats != nullptr) *stats = std::move(local);
  return output;
}

}  // namespace

Instance RunJob(const MapReduceJob& job, const Instance& input,
                MapReduceStats* stats) {
  if (job.map_rows && job.reduce_rows) {
    return RunJobColumnar(job, input, stats);
  }
  // Map stage: apply mu to every input fact, group by key. Groups use an
  // ordered map so the execution is deterministic.
  std::map<std::uint64_t, std::vector<Fact>> groups;
  std::size_t shuffled = 0;
  input.ForEachFact([&job, &groups, &shuffled](const Fact& f) {
    for (KeyValue& kv : job.map(f)) {
      groups[kv.key].push_back(std::move(kv.value));
      ++shuffled;
    }
  });

  // Reduce stage: apply rho per group.
  Instance output;
  MapReduceStats local;
  local.pairs_shuffled = shuffled;
  for (const auto& [key, values] : groups) {
    local.group_sizes.push_back(values.size());
    for (const KeyValue& kv : job.reduce(key, values)) {
      output.Insert(kv.value);
    }
  }
  if (stats != nullptr) *stats = std::move(local);
  return output;
}

Instance RunProgram(const MapReduceProgram& program, const Instance& input,
                    std::vector<MapReduceStats>* stats) {
  Instance current = input;
  for (const MapReduceJob& job : program.jobs) {
    MapReduceStats job_stats;
    current = RunJob(job, current, &job_stats);
    if (stats != nullptr) stats->push_back(std::move(job_stats));
  }
  return current;
}

}  // namespace lamp
