// Storage micro-benchmark: the raw columnar Instance operations every
// evaluator sits on — bulk insert (dedup hash table growth), duplicate-
// heavy re-insert (probe-only path), membership probes, full scans via
// RowsOf, and join-index build + probe (IndexOn bucket chains). Wall
// times feed the perf baseline; the fact/row counts pin the workload so
// baseline keys stay comparable across commits.

#include <cstdio>

#include "common/hash.h"
#include "common/rng.h"
#include "obs/bench_report.h"
#include "par/thread_pool.h"
#include "relational/instance.h"

namespace {

using namespace lamp;

constexpr std::size_t kRows = 50000;
constexpr std::int64_t kDomain = 4096;
constexpr RelationId kRel = 0;

std::vector<Value> MakeRows(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> rows;
  rows.reserve(kRows * 2);
  for (std::size_t i = 0; i < kRows; ++i) {
    rows.push_back(Value(rng.UniformInt(0, kDomain - 1)));
    rows.push_back(Value(rng.UniformInt(0, kDomain - 1)));
  }
  return rows;
}

void PrintTable() {
  std::printf(
      "# storage: columnar Instance micro-operations (50k binary rows)\n"
      "# columns: phase  rows  result\n");
  obs::BenchReporter reporter("storage");
  const std::vector<Value> rows = MakeRows(11);

  // Bulk insert: fresh instance, dedup table grows from empty.
  obs::WallTimer insert_timer;
  Instance instance;
  const std::size_t unique = instance.InsertRows(kRel, rows.data(), kRows, 2);
  const double insert_ms = insert_timer.ElapsedMs();

  // Duplicate re-insert: every probe hits an existing row.
  obs::WallTimer dup_timer;
  const std::size_t re_added =
      instance.InsertRows(kRel, rows.data(), kRows, 2);
  const double dup_ms = dup_timer.ElapsedMs();

  // Membership probes over a shifted row mix (hits and misses).
  const std::vector<Value> probes = MakeRows(13);
  obs::WallTimer probe_timer;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < kRows; ++i) {
    if (instance.ContainsRow(kRel, probes.data() + 2 * i, 2)) ++hits;
  }
  const double probe_ms = probe_timer.ElapsedMs();

  // Full scan through the contiguous column.
  obs::WallTimer scan_timer;
  std::int64_t checksum = 0;
  const RowsView view = instance.RowsOf(kRel);
  for (std::size_t i = 0; i < view.num_rows; ++i) {
    checksum += view.Row(i)[0].v;
  }
  const double scan_ms = scan_timer.ElapsedMs();

  // Join-index build + probe: chains keyed on the first column.
  obs::WallTimer index_timer;
  std::size_t indexed = 0;
  const JoinIndex& index = instance.IndexOn(kRel, /*mask=*/1, &indexed);
  std::size_t chain_rows = 0;
  for (std::size_t i = 0; i < kRows; ++i) {
    std::uint64_t h = 1469598103934665603ull;
    h = HashCombine(h, static_cast<std::uint64_t>(probes[2 * i].v));
    const std::size_t slot = static_cast<std::size_t>(h) & index.SlotMask();
    for (std::uint32_t link = index.head[slot]; link != 0;
         link = index.next[link - 1]) {
      const std::size_t row_id = link - 1;
      if (view.Row(row_id)[0].v == probes[2 * i].v) ++chain_rows;
    }
  }
  const double index_ms = index_timer.ElapsedMs();

  std::printf("%9s %6zu %7zu\n", "insert", kRows, unique);
  std::printf("%9s %6zu %7zu\n", "reinsert", kRows, re_added);
  std::printf("%9s %6zu %7zu\n", "probe", kRows, hits);
  std::printf("%9s %6zu %7lld\n", "scan", view.num_rows,
              static_cast<long long>(checksum));
  std::printf("%9s %6zu %7zu\n", "index", indexed, chain_rows);

  reporter.NewRecord()
      .Param("rows", kRows)
      .Metric("storage.unique_rows", unique)
      .Metric("storage.reinsert_added", re_added)
      .Metric("storage.probe_hits", hits)
      .Metric("storage.index_chain_rows", chain_rows)
      .Metric("storage.insert_ms_x1000",
              static_cast<std::size_t>(insert_ms * 1000))
      .Metric("storage.reinsert_ms_x1000",
              static_cast<std::size_t>(dup_ms * 1000))
      .Metric("storage.probe_ms_x1000",
              static_cast<std::size_t>(probe_ms * 1000))
      .Metric("storage.scan_ms_x1000",
              static_cast<std::size_t>(scan_ms * 1000))
      .Metric("storage.index_ms_x1000",
              static_cast<std::size_t>(index_ms * 1000))
      .WallMs(insert_ms + dup_ms + probe_ms + scan_ms + index_ms);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  lamp::par::ConfigureFromCommandLine(&argc, argv);
  lamp::obs::ConfigureBenchFromCommandLine(argc, argv);
  lamp::obs::RunRepeated([] { PrintTable(); });
  return 0;
}
