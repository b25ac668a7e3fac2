#ifndef LAMP_OBS_BENCH_REPORT_H_
#define LAMP_OBS_BENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

/// \file
/// Uniform machine-readable bench reporting.
///
/// Every binary under bench/ creates one BenchReporter and appends one
/// record per measured configuration. Each record serialises as one JSON
/// line:
///
///   {"bench": "hypercube_load",
///    "params": {"query": "triangle", "p": 64, "m": 20000},
///    "metrics": {"mpc.max_load": 812, ...},
///    "threads": 8, "repeat": 0, "wall_ms": 12.4, "wall_ns": 12400000,
///    "meta": {"git_rev": "a0ee471", ...}}
///
/// "threads" records lamp::par's configured lane count at record creation
/// (the --threads / LAMP_THREADS value), and "wall_ns" the wall-clock in
/// integer nanoseconds, so BENCH_*.json captures scaling curves directly.
/// "repeat" is the zero-based repetition index set by the --repeat flag
/// (ConfigureBenchFromCommandLine / RunRepeated below); repeated runs
/// let tools/bench_runner estimate run-to-run noise per configuration.
/// "meta" appears only when the LAMP_BENCH_META environment variable
/// holds a JSON object — bench_runner uses it to stamp every record with
/// run provenance (git rev, date, host) without the bench knowing.
///
/// A record may end in named arrays of sub-records (Record::Attach): the
/// MPC benches attach "audit" (lamp.audit.v1, obs/audit/audit.h) and,
/// where they race strategies, "plan" (lamp.plan_agreement.v1,
/// sa/plan/agreement.h) entries to the record of the configuration they
/// describe. The bench record is the only unit a bench writes; the audit
/// and agreement gates (lamp_obs report --check, lamp_plan check) read
/// these arrays back through LoadBenchFile.
///
/// Destination: the file named by the LAMP_BENCH_JSON environment
/// variable (appended, creating it if needed) so table output on stdout
/// stays human-readable; without the variable — or when that file cannot
/// be opened — the records are printed to stdout after a "# bench-json:"
/// marker line. One record per line means BENCH_*.json files diff cleanly
/// across PRs.

namespace lamp::obs {

/// Wall-clock stopwatch for the per-configuration "wall_ms" field.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Restart() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  std::uint64_t ElapsedNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

class BenchReporter {
 public:
  /// One record under construction. All setters return *this for
  /// chaining; the record is complete when the reporter flushes.
  class Record {
   public:
    Record& Param(std::string_view name, JsonValue value);
    Record& Metric(std::string_view name, JsonValue value);
    /// Folds a whole registry snapshot into "metrics".
    Record& Metrics(const MetricsRegistry& registry);
    /// Sets both "wall_ms" and the derived integer "wall_ns".
    Record& WallMs(double ms);
    /// Exact nanosecond variant (WallTimer::ElapsedNs); also sets wall_ms.
    Record& WallNs(std::uint64_t ns);
    /// Appends \p entry to the array member \p array, creating it after
    /// the members already set ("audit", "plan").
    Record& Attach(std::string_view array, JsonValue entry);

   private:
    friend class BenchReporter;
    explicit Record(std::string_view bench_name);
    JsonValue json_;
  };

  /// \p bench_name identifies the binary ("hypercube_load", ...).
  explicit BenchReporter(std::string bench_name);

  /// Flushes on destruction (idempotent with explicit Flush).
  ~BenchReporter();

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  /// Starts a new record. References remain valid until Flush.
  Record& NewRecord();

  std::size_t NumRecords() const { return records_.size(); }

  /// All pending records, one compact JSON document per line.
  std::string RenderJsonLines() const;

  /// Writes pending records to LAMP_BENCH_JSON (append) or stdout and
  /// clears them.
  void Flush();

 private:
  std::string bench_name_;
  std::deque<Record> records_;  // deque: NewRecord references stay valid.
};

/// Name of the environment variable selecting the JSON destination file.
inline constexpr const char* kBenchJsonEnvVar = "LAMP_BENCH_JSON";

/// Environment variable holding a compact JSON object merged into every
/// record as "meta" (run provenance: git rev, date, host, ...). Invalid
/// or non-object content is ignored with a warning on stderr.
inline constexpr const char* kBenchMetaEnvVar = "LAMP_BENCH_META";

/// The records of a bench record file, as LoadBenchFile reads them.
struct BenchFile {
  /// JSON-lines records, or the "records" array of a report document.
  std::vector<JsonValue> records;
  /// The "summaries" array of a report or baseline document (bench_runner
  /// --out / --update); null for JSON lines.
  JsonValue summaries;
};

/// Reads \p path as either JSON lines, one BenchReporter record per line
/// (blank and "#" marker lines skipped), or one bench_runner document
/// (lamp.bench_report.v1 with "records", lamp.perf_baseline.v1 with only
/// "summaries"). Returns nullopt and explains in \p error when the file
/// cannot be read or a line is not a JSON object: a gate must not pass
/// because a corrupted record dropped out of its input.
std::optional<BenchFile> LoadBenchFile(const std::string& path,
                                       std::string* error);

/// Loads every file in \p paths with LoadBenchFile and returns the
/// entries their records attached under \p array ("audit", "plan"), in
/// file order. Records without the member contribute nothing; nullopt
/// (with \p error) when a file fails to load or a record holds \p array
/// as something other than an array of objects.
std::optional<std::vector<JsonValue>> LoadAttachedEntries(
    const std::vector<std::string>& paths, std::string_view array,
    std::string* error);

/// The last flag parser of every binary under bench/, called once
/// par::ConfigureFromCommandLine (and, in the MPC benches,
/// transport::ConfigureFromCommandLine) has stripped its flags: stores
/// "--repeat N" / "--repeat=N" for RunRepeated. A value par::ParseCount
/// rejects, or any other argument left in argv, exits 2 with a usage
/// message.
void ConfigureBenchFromCommandLine(int argc, char** argv);

/// Zero-based index stamped into the "repeat" field of records created
/// afterwards. RunRepeated advances it; tests may set it directly.
void SetBenchRepeatIndex(int index);
int BenchRepeatIndex();

/// Runs \p body once per configured repeat, setting the stamped repeat
/// index to 0..repeats-1 around each call.
void RunRepeated(const std::function<void()>& body);

}  // namespace lamp::obs

#endif  // LAMP_OBS_BENCH_REPORT_H_
