// bench_runner: runs the bench suite from bench/MANIFEST.json, aggregates
// the JSON-lines records every bench emits (obs/bench_report.h) into a
// perf store (obs/perfdb.h), writes a BENCH_report.json, and — given a
// baseline — gates on noise-aware regressions.
//
//   bench_runner --repeat 3                      run suite, write report
//   bench_runner --threads 1,4                   run at several lane counts
//   bench_runner --filter hypercube              subset of the manifest
//   bench_runner --baseline BENCH_baseline.json  compare + gate (exit 1)
//   bench_runner --baseline B.json --update      rewrite the baseline
//   bench_runner --compare RECORDS.jsonl ...     skip running; diff files
//
// Every record is stamped with run provenance (git rev, ISO date, host,
// repeat index) so BENCH_report.json is a self-describing point on the
// PR-to-PR perf trajectory. The records keep the audit and planner
// entries the MPC benches attach, so `lamp_obs report --check` and
// `lamp_plan check` gate the same report. Exit codes: 0 ok, 1 regression,
// 2 usage or environment error (missing binary, bench failed, unreadable
// baseline or records).

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_report.h"
#include "obs/json.h"
#include "obs/perfdb.h"

namespace lamp {
namespace {

struct Options {
  std::string manifest = "bench/MANIFEST.json";
  std::string bin_dir;  // Defaults from argv[0]'s directory.
  std::string out = "BENCH_report.json";
  std::string markdown;          // Optional --md report path.
  std::string baseline;          // --baseline file.
  std::string compare;           // --compare: records file standing in for a run.
  std::string filter;            // Substring filter on manifest names.
  std::vector<int> threads{1};   // --threads 1,4
  int repeat = 1;
  bool update_baseline = false;
  obs::DiffThresholds thresholds;
};

void Usage() {
  std::printf(
      "usage: bench_runner [options]\n"
      "  --manifest FILE   bench manifest (default bench/MANIFEST.json)\n"
      "  --bin-dir DIR     directory with bench binaries (default: next to\n"
      "                    this binary, ../bench)\n"
      "  --repeat N        repeats per configuration (default 1)\n"
      "  --threads LIST    comma-separated lane counts (default 1)\n"
      "  --filter SUBSTR   only manifest entries whose name contains SUBSTR\n"
      "  --out FILE        aggregated report (default BENCH_report.json)\n"
      "  --md FILE         also write the comparison as markdown\n"
      "  --baseline FILE   compare against a baseline; exit 1 on regression\n"
      "  --update          rewrite --baseline from this run and exit 0\n"
      "  --compare FILE    don't run benches; read records/report/baseline\n"
      "                    from FILE as the current side\n"
      "  --rel-tol F       relative tolerance (default 0.10)\n"
      "  --noise-mult F    noise multiplier (default 3.0)\n"
      "  --min-delta-ms F  absolute delta floor in ms (default 0.05)\n");
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

std::string Dirname(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// First line of a command's stdout, or fallback.
std::string CaptureLine(const char* cmd, const std::string& fallback) {
  std::FILE* pipe = ::popen(cmd, "r");
  if (pipe == nullptr) return fallback;
  char buf[256] = {0};
  std::string out = fallback;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    out = buf;
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    if (out.empty()) out = fallback;
  }
  ::pclose(pipe);
  return out;
}

obs::JsonValue RunMetadata(const Options& opt) {
  obs::JsonValue meta = obs::JsonValue::Object();
  meta.Set("git_rev",
           CaptureLine("git rev-parse --short HEAD 2>/dev/null", "unknown"));
  char stamp[64] = "unknown";
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc;
  if (gmtime_r(&now, &tm_utc) != nullptr) {
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  }
  meta.Set("date", stamp);
  char host[256] = {0};
  meta.Set("host", ::gethostname(host, sizeof(host) - 1) == 0 &&
                           host[0] != '\0'
                       ? host
                       : "unknown");
  meta.Set("repeats", opt.repeat);
  obs::JsonValue threads = obs::JsonValue::Array();
  for (int t : opt.threads) threads.PushBack(t);
  meta.Set("threads", std::move(threads));
  return meta;
}

struct ManifestEntry {
  std::string name;
  std::string bin;
  // Transport fan-out: one run per listed backend, passed as
  // `--transport <kind>`. A single empty string means "no flag" (the
  // bench's default backend), keeping entries without the key unchanged.
  std::vector<std::string> transports{std::string()};
};

std::optional<std::vector<ManifestEntry>> LoadManifest(
    const std::string& path) {
  const std::optional<std::string> text = obs::ReadTextFile(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "bench_runner: cannot read manifest %s\n",
                 path.c_str());
    return std::nullopt;
  }
  const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(*text);
  if (!doc.has_value() || !doc->IsObject()) {
    std::fprintf(stderr, "bench_runner: %s is not a JSON object\n",
                 path.c_str());
    return std::nullopt;
  }
  const obs::JsonValue* benches = doc->Find("benches");
  if (benches == nullptr || !benches->IsArray()) {
    std::fprintf(stderr, "bench_runner: %s has no \"benches\" array\n",
                 path.c_str());
    return std::nullopt;
  }
  std::vector<ManifestEntry> out;
  for (std::size_t i = 0; i < benches->size(); ++i) {
    const obs::JsonValue& e = benches->at(i);
    const obs::JsonValue* name = e.Find("name");
    const obs::JsonValue* bin = e.Find("bin");
    if (name == nullptr || !name->IsString() || bin == nullptr ||
        !bin->IsString()) {
      std::fprintf(stderr,
                   "bench_runner: manifest entry %zu lacks name/bin\n", i);
      return std::nullopt;
    }
    ManifestEntry entry;
    entry.name = name->AsString();
    entry.bin = bin->AsString();
    const obs::JsonValue* transports = e.Find("transports");
    if (transports != nullptr) {
      if (!transports->IsArray() || transports->size() == 0) {
        std::fprintf(stderr,
                     "bench_runner: manifest entry %zu has a non-array or"
                     " empty \"transports\"\n",
                     i);
        return std::nullopt;
      }
      entry.transports.clear();
      for (std::size_t t = 0; t < transports->size(); ++t) {
        const obs::JsonValue& kind = transports->at(t);
        if (!kind.IsString() || kind.AsString().empty()) {
          std::fprintf(stderr,
                       "bench_runner: manifest entry %zu: \"transports\""
                       " holds a non-string element\n",
                       i);
          return std::nullopt;
        }
        entry.transports.push_back(kind.AsString());
      }
    }
    out.push_back(std::move(entry));
  }
  return out;
}

/// Adds every record of \p file to \p db, reporting (not failing on)
/// records without the uniform bench shape.
void Ingest(const obs::BenchFile& file, obs::PerfDb* db) {
  for (const obs::JsonValue& record : file.records) {
    std::string error;
    if (!db->Add(record, &error)) {
      std::fprintf(stderr, "bench_runner: skipping record: %s\n",
                   error.c_str());
    }
  }
}

/// Loads "the other side" of a comparison from any of the formats this
/// tool reads or writes: a report/baseline document (uses "summaries"),
/// or raw JSON-lines records (summarised on the fly).
std::optional<std::map<obs::PerfKey, obs::PerfSummary>> LoadSummaries(
    const std::string& path) {
  std::string error;
  const std::optional<obs::BenchFile> file = obs::LoadBenchFile(path, &error);
  if (!file.has_value()) {
    std::fprintf(stderr, "bench_runner: %s\n", error.c_str());
    return std::nullopt;
  }
  if (!file->summaries.IsNull()) return obs::SummariesFromJson(file->summaries);
  obs::PerfDb db;
  Ingest(*file, &db);
  if (db.Empty()) {
    std::fprintf(stderr, "bench_runner: %s holds no bench records\n",
                 path.c_str());
    return std::nullopt;
  }
  return db.Summaries();
}

bool ParseThreadsList(const char* text, std::vector<int>* out) {
  out->clear();
  std::string token;
  std::istringstream in(text);
  while (std::getline(in, token, ',')) {
    const int v = std::atoi(token.c_str());
    if (v < 1) return false;
    out->push_back(v);
  }
  return !out->empty();
}

/// Shell-quotes with single quotes (paths and JSON may hold spaces).
std::string Quoted(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

int RunSuite(const Options& opt, const obs::JsonValue& meta, obs::PerfDb* db) {
  const std::optional<std::vector<ManifestEntry>> manifest =
      LoadManifest(opt.manifest);
  if (!manifest.has_value()) return 2;

  std::vector<ManifestEntry> selected;
  for (const ManifestEntry& e : *manifest) {
    if (opt.filter.empty() || e.name.find(opt.filter) != std::string::npos) {
      selected.push_back(e);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "bench_runner: filter %s matches no manifest entry\n",
                 opt.filter.c_str());
    return 2;
  }

  // Validate the whole selection before running anything: a manifest
  // entry whose binary is missing used to surface only when the run
  // reached it, wasting every bench before it. Collect all problems.
  std::vector<std::string> missing;
  for (const ManifestEntry& e : selected) {
    const std::string bin = opt.bin_dir + "/" + e.bin;
    if (::access(bin.c_str(), X_OK) != 0) {
      missing.push_back(e.name + " -> " + bin);
    }
  }
  if (!missing.empty()) {
    std::fprintf(stderr,
                 "bench_runner: %zu manifest entr%s name no built bench"
                 " binary (build the bench targets, or pass --bin-dir):\n",
                 missing.size(), missing.size() == 1 ? "y" : "ies");
    for (const std::string& m : missing) {
      std::fprintf(stderr, "  %s\n", m.c_str());
    }
    return 2;
  }

  const std::string records_path =
      opt.out + ".records.tmp";  // One shared append target, wiped first.
  std::remove(records_path.c_str());
  const std::string meta_json = meta.Dump();

  std::size_t run = 0;
  std::size_t total = 0;
  for (const ManifestEntry& e : selected) {
    total += e.transports.size() * opt.threads.size();
  }
  for (const ManifestEntry& e : selected) {
    const std::string bin = opt.bin_dir + "/" + e.bin;
    for (const std::string& transport : e.transports) {
      const std::string transport_flag =
          transport.empty() ? std::string()
                            : " --transport " + Quoted(transport);
      for (int t : opt.threads) {
        ++run;
        std::printf("[%zu/%zu] %s%s --threads %d --repeat %d\n", run, total,
                    e.name.c_str(), transport_flag.c_str(), t, opt.repeat);
        std::fflush(stdout);
        const std::string cmd =
            std::string(obs::kBenchJsonEnvVar) + "=" +
            Quoted(records_path) + " " + obs::kBenchMetaEnvVar + "=" +
            Quoted(meta_json) + " " + Quoted(bin) + transport_flag +
            " --threads " + std::to_string(t) + " --repeat " +
            std::to_string(opt.repeat) + " > /dev/null";
        const int status = std::system(cmd.c_str());
        if (status != 0) {
          std::fprintf(stderr, "bench_runner: %s exited with status %d\n",
                       e.bin.c_str(), status);
          std::remove(records_path.c_str());
          return 2;
        }
      }
    }
  }

  std::string error;
  const std::optional<obs::BenchFile> records =
      obs::LoadBenchFile(records_path, &error);
  std::remove(records_path.c_str());
  if (!records.has_value()) {
    std::fprintf(stderr, "bench_runner: benches produced no readable"
                         " records: %s\n",
                 error.c_str());
    return 2;
  }
  Ingest(*records, db);
  std::printf("collected %zu record(s) across %zu configuration(s)\n",
              db->NumRecords(), db->Summaries().size());
  return 0;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_runner: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--manifest") {
      const char* v = next("--manifest");
      if (v == nullptr) return 2;
      opt.manifest = v;
    } else if (arg == "--bin-dir") {
      const char* v = next("--bin-dir");
      if (v == nullptr) return 2;
      opt.bin_dir = v;
    } else if (arg == "--repeat") {
      const char* v = next("--repeat");
      if (v == nullptr) return 2;
      opt.repeat = std::max(1, std::atoi(v));
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr || !ParseThreadsList(v, &opt.threads)) {
        std::fprintf(stderr, "bench_runner: bad --threads list\n");
        return 2;
      }
    } else if (arg == "--filter") {
      const char* v = next("--filter");
      if (v == nullptr) return 2;
      opt.filter = v;
    } else if (arg == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return 2;
      opt.out = v;
    } else if (arg == "--md") {
      const char* v = next("--md");
      if (v == nullptr) return 2;
      opt.markdown = v;
    } else if (arg == "--baseline") {
      const char* v = next("--baseline");
      if (v == nullptr) return 2;
      opt.baseline = v;
    } else if (arg == "--compare") {
      const char* v = next("--compare");
      if (v == nullptr) return 2;
      opt.compare = v;
    } else if (arg == "--update") {
      opt.update_baseline = true;
    } else if (arg == "--rel-tol") {
      const char* v = next("--rel-tol");
      if (v == nullptr) return 2;
      opt.thresholds.rel_tolerance = std::atof(v);
    } else if (arg == "--noise-mult") {
      const char* v = next("--noise-mult");
      if (v == nullptr) return 2;
      opt.thresholds.noise_mult = std::atof(v);
    } else if (arg == "--min-delta-ms") {
      const char* v = next("--min-delta-ms");
      if (v == nullptr) return 2;
      opt.thresholds.min_delta_ns = std::atof(v) * 1e6;
    } else {
      std::fprintf(stderr, "bench_runner: unknown argument %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  if (opt.bin_dir.empty()) {
    opt.bin_dir = Dirname(argv[0]) + "/../bench";
  }
  if (opt.update_baseline && opt.baseline.empty()) {
    std::fprintf(stderr, "bench_runner: --update needs --baseline\n");
    return 2;
  }

  // Load the baseline before running anything, for the same reason the
  // suite validates its binaries up front: an unreadable or malformed
  // baseline used to surface only after the whole suite had run, wasting
  // every measurement. --update rewrites the file, so only the compare
  // path needs it readable.
  std::optional<std::map<obs::PerfKey, obs::PerfSummary>> baseline;
  if (!opt.baseline.empty() && !opt.update_baseline) {
    baseline = LoadSummaries(opt.baseline);
    if (!baseline.has_value()) {
      std::fprintf(stderr,
                   "bench_runner: cannot load baseline %s — nothing was run;"
                   " fix the file or rebuild it with --update\n",
                   opt.baseline.c_str());
      return 2;
    }
  }

  const obs::JsonValue meta = RunMetadata(opt);
  obs::PerfDb db;
  std::map<obs::PerfKey, obs::PerfSummary> current;
  if (!opt.compare.empty()) {
    const auto loaded = LoadSummaries(opt.compare);
    if (!loaded.has_value()) return 2;
    current = *loaded;
  } else {
    const int status = RunSuite(opt, meta, &db);
    if (status != 0) return status;
    current = db.Summaries();

    // The aggregated report: provenance + per-key summaries + raw records.
    obs::JsonValue report = obs::JsonValue::Object();
    report.Set("schema", "lamp.bench_report.v1");
    report.Set("meta", meta);
    report.Set("summaries", *db.SummariesToJson().Find("summaries"));
    report.Set("records", db.RecordsToJson());
    if (!WriteFile(opt.out, report.Dump(1) + "\n")) {
      std::fprintf(stderr, "bench_runner: cannot write %s\n",
                   opt.out.c_str());
      return 2;
    }
    std::printf("wrote %s\n", opt.out.c_str());
  }

  if (opt.baseline.empty()) return 0;

  if (opt.update_baseline) {
    obs::JsonValue baseline = obs::JsonValue::Object();
    baseline.Set("schema", "lamp.perf_baseline.v1");
    baseline.Set("meta", meta);
    // Only the fields the gate needs (median + noise), so the committed
    // file stays small and only changes when the medians move.
    obs::JsonValue arr = obs::JsonValue::Array();
    for (const auto& [key, s] : current) {
      obs::JsonValue e = obs::JsonValue::Object();
      e.Set("bench", key.bench);
      const std::optional<obs::JsonValue> params =
          obs::JsonValue::Parse(key.params);
      e.Set("params", params.has_value() ? *params : obs::JsonValue::Object());
      e.Set("threads", key.threads);
      e.Set("count", s.count);
      e.Set("median_ns", s.median_ns);
      e.Set("stddev_ns", s.stddev_ns);
      arr.PushBack(std::move(e));
    }
    baseline.Set("summaries", std::move(arr));
    if (!WriteFile(opt.baseline, baseline.Dump(1) + "\n")) {
      std::fprintf(stderr, "bench_runner: cannot write %s\n",
                   opt.baseline.c_str());
      return 2;
    }
    std::printf("updated baseline %s (%zu key(s))\n", opt.baseline.c_str(),
                current.size());
    return 0;
  }

  const obs::DiffReport diff =
      obs::DiffSummaries(*baseline, current, opt.thresholds);
  std::printf("\n%s", diff.RenderConsole().c_str());
  // Keys the baseline pins but this run never produced are a silent way
  // to lose gate coverage (a renamed bench, a dropped transport, a
  // narrowed --threads list): name every one of them explicitly.
  if (diff.num_missing > 0) {
    std::fprintf(stderr,
                 "bench_runner: %zu baseline key(s) missing from this run"
                 " (renamed bench, dropped params, or a narrower --filter/"
                 "--threads selection? rebuild with --update if intended):\n",
                 diff.num_missing);
    for (const obs::DiffEntry& e : diff.entries) {
      if (e.status != obs::DiffStatus::kMissing) continue;
      std::fprintf(stderr, "  missing: %s\n", e.key.Label().c_str());
    }
  }
  if (!opt.markdown.empty() &&
      !WriteFile(opt.markdown, diff.RenderMarkdown())) {
    std::fprintf(stderr, "bench_runner: cannot write %s\n",
                 opt.markdown.c_str());
    return 2;
  }
  if (diff.HasRegressions()) {
    std::printf("\nperf gate: FAIL (%zu regressed key(s); rerun with"
                " --update after an intended change)\n",
                diff.num_regressed);
    return 1;
  }
  std::printf("\nperf gate: ok\n");
  return 0;
}

}  // namespace
}  // namespace lamp

int main(int argc, char** argv) { return lamp::Main(argc, argv); }
