#ifndef LAMP_OBS_PERFDB_H_
#define LAMP_OBS_PERFDB_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

/// \file
/// The consumption side of the bench-reporting pipeline: a keyed store of
/// BenchReporter records (read with obs::LoadBenchFile), per-key summary
/// statistics over repeats, and a noise-aware diff between two stores.
///
/// Keying: a record belongs to the (bench, params, threads) configuration
/// it measured. "params" is identified by its compact JSON serialisation,
/// which is deterministic because JsonValue objects preserve insertion
/// order and every bench sets its params in a fixed order.
///
/// The regression rule is deliberately two-sided: a key is flagged only
/// when the median wall-clock moved by more than a *relative* tolerance
/// AND by more than a multiple of the observed run-to-run noise (the
/// larger sample standard deviation of the two sides) AND by more than an
/// absolute floor. A single noisy repeat therefore cannot fail a gate,
/// and sub-microsecond configurations cannot flake on scheduler jitter.

namespace lamp::obs {

/// Identity of one measured configuration.
struct PerfKey {
  std::string bench;
  std::string params;  // Compact JSON of the "params" object.
  int threads = 1;

  bool operator<(const PerfKey& o) const {
    if (bench != o.bench) return bench < o.bench;
    if (params != o.params) return params < o.params;
    return threads < o.threads;
  }
  bool operator==(const PerfKey& o) const {
    return bench == o.bench && params == o.params && threads == o.threads;
  }

  /// "bench params ×T" — the label used by reports.
  std::string Label() const;
};

/// Summary of the wall_ns samples recorded for one key.
struct PerfSummary {
  std::size_t count = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
  double mean_ns = 0.0;
  double median_ns = 0.0;
  double stddev_ns = 0.0;  // Sample stddev (n-1); 0 when count < 2.
  double cv = 0.0;         // stddev / mean; 0 when mean is 0.
};

/// Computes the summary of a raw sample (exposed for tests).
PerfSummary Summarize(std::vector<std::uint64_t> wall_ns);

/// Keyed store of bench records.
class PerfDb {
 public:
  /// Ingests one parsed record. Returns false (and explains in \p error
  /// when non-null) if the record lacks the uniform shape ("bench" string,
  /// "params" object, numeric "wall_ns").
  bool Add(const JsonValue& record, std::string* error = nullptr);

  std::size_t NumRecords() const;
  bool Empty() const { return records_.empty(); }

  /// All ingested records grouped by key, insertion-ordered within a key.
  const std::map<PerfKey, std::vector<JsonValue>>& records() const {
    return records_;
  }

  /// Per-key summaries over the wall_ns samples.
  std::map<PerfKey, PerfSummary> Summaries() const;

  /// Flat array of every ingested record (report serialisation).
  JsonValue RecordsToJson() const;

  /// {"schema": "lamp.perf_summary.v1", "summaries": [{"bench": ..,
  ///  "params": {...}, "threads": .., "count": .., "min_ns": ..,
  ///  "median_ns": .., "mean_ns": .., "max_ns": .., "stddev_ns": ..,
  ///  "cv": ..}, ...]}
  JsonValue SummariesToJson() const;

 private:
  std::map<PerfKey, std::vector<JsonValue>> records_;
};

/// Parses a summaries array produced by PerfDb::SummariesToJson (or the
/// "summaries" member of a bench_runner report/baseline document) back
/// into a summary map. Unparseable entries are skipped.
std::map<PerfKey, PerfSummary> SummariesFromJson(const JsonValue& summaries);

/// Thresholds for the noise-aware diff. A delta counts only when it
/// clears all three bars.
struct DiffThresholds {
  double rel_tolerance = 0.10;  // |delta| / baseline median.
  double noise_mult = 3.0;      // |delta| vs observed stddev.
  double min_delta_ns = 5.0e4;  // Absolute floor: 50us.
};

enum class DiffStatus {
  kUnchanged,  // Within tolerance (or within noise).
  kImproved,   // Median dropped past every threshold.
  kRegressed,  // Median rose past every threshold.
  kNew,        // Key only in the current store.
  kMissing,    // Key only in the baseline store.
};

std::string_view DiffStatusName(DiffStatus status);

struct DiffEntry {
  PerfKey key;
  DiffStatus status = DiffStatus::kUnchanged;
  PerfSummary baseline;  // Zero-initialised when status == kNew.
  PerfSummary current;   // Zero-initialised when status == kMissing.
  double delta_rel = 0.0;  // (current - baseline) / baseline medians.
  double noise_ns = 0.0;   // max(baseline.stddev, current.stddev).
};

struct DiffReport {
  std::vector<DiffEntry> entries;  // Key order; regressions first.
  std::size_t num_regressed = 0;
  std::size_t num_improved = 0;
  std::size_t num_unchanged = 0;
  std::size_t num_new = 0;
  std::size_t num_missing = 0;
  DiffThresholds thresholds;

  bool HasRegressions() const { return num_regressed > 0; }

  /// Fixed-width table for terminals.
  std::string RenderConsole() const;
  /// GitHub-flavoured markdown (PR comments / job summaries).
  std::string RenderMarkdown() const;
};

/// Diffs two summary maps under \p thresholds. Entries are ordered
/// regressions first, then improvements, then the rest by key.
DiffReport DiffSummaries(const std::map<PerfKey, PerfSummary>& baseline,
                         const std::map<PerfKey, PerfSummary>& current,
                         const DiffThresholds& thresholds);

}  // namespace lamp::obs

#endif  // LAMP_OBS_PERFDB_H_
