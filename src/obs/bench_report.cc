#include "obs/bench_report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "par/thread_pool.h"

namespace lamp::obs {

namespace {

int g_repeats = 1;
int g_repeat_index = 0;

/// LAMP_BENCH_META parsed once per process; nullopt when unset/invalid.
const std::optional<JsonValue>& BenchMeta() {
  static const std::optional<JsonValue> meta = []() -> std::optional<JsonValue> {
    const char* text = std::getenv(kBenchMetaEnvVar);
    if (text == nullptr || text[0] == '\0') return std::nullopt;
    std::optional<JsonValue> parsed = JsonValue::Parse(text);
    if (!parsed.has_value() || !parsed->IsObject()) {
      std::fprintf(stderr,
                   "bench_report: ignoring %s (not a JSON object)\n",
                   kBenchMetaEnvVar);
      return std::nullopt;
    }
    return parsed;
  }();
  return meta;
}

}  // namespace

int ConfigureRepeatsFromCommandLine(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    int consumed = 0;
    if (std::strcmp(arg, "--repeat") == 0 && i + 1 < *argc) {
      value = argv[i + 1];
      consumed = 2;
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      value = arg + 9;
      consumed = 1;
    }
    if (value == nullptr) continue;
    out = std::atoi(value);
    for (int j = i + consumed; j < *argc; ++j) argv[j - consumed] = argv[j];
    *argc -= consumed;
    --i;
  }
  if (out < 1) out = 1;
  g_repeats = out;
  return out;
}

int BenchRepeats() { return g_repeats; }

void SetBenchRepeatIndex(int index) { g_repeat_index = index; }

int BenchRepeatIndex() { return g_repeat_index; }

void RunRepeated(const std::function<void()>& body) {
  for (int r = 0; r < g_repeats; ++r) {
    SetBenchRepeatIndex(r);
    body();
  }
  SetBenchRepeatIndex(0);
}

BenchReporter::Record::Record(std::string_view bench_name) {
  json_ = JsonValue::Object();
  json_.Set("bench", bench_name);
  json_.Set("params", JsonValue::Object());
  json_.Set("metrics", JsonValue::Object());
  json_.Set("threads", par::DefaultThreads());
  json_.Set("repeat", BenchRepeatIndex());
  json_.Set("wall_ms", JsonValue());
  json_.Set("wall_ns", JsonValue());
  if (BenchMeta().has_value()) json_.Set("meta", *BenchMeta());
}

BenchReporter::Record& BenchReporter::Record::Param(std::string_view name,
                                                    JsonValue value) {
  JsonValue params = *json_.Find("params");
  params.Set(name, std::move(value));
  json_.Set("params", std::move(params));
  return *this;
}

BenchReporter::Record& BenchReporter::Record::Metric(std::string_view name,
                                                     JsonValue value) {
  JsonValue metrics = *json_.Find("metrics");
  metrics.Set(name, std::move(value));
  json_.Set("metrics", std::move(metrics));
  return *this;
}

BenchReporter::Record& BenchReporter::Record::Metrics(
    const MetricsRegistry& registry) {
  JsonValue metrics = *json_.Find("metrics");
  const JsonValue snapshot = registry.ToJson();
  for (const auto& [name, value] : snapshot.members()) {
    metrics.Set(name, value);
  }
  json_.Set("metrics", std::move(metrics));
  return *this;
}

BenchReporter::Record& BenchReporter::Record::WallMs(double ms) {
  json_.Set("wall_ms", JsonValue(ms));
  json_.Set("wall_ns",
            JsonValue(static_cast<std::size_t>(std::llround(ms * 1e6))));
  return *this;
}

BenchReporter::Record& BenchReporter::Record::WallNs(std::uint64_t ns) {
  json_.Set("wall_ms", JsonValue(static_cast<double>(ns) / 1e6));
  json_.Set("wall_ns", JsonValue(static_cast<std::size_t>(ns)));
  return *this;
}

BenchReporter::Record& BenchReporter::Record::Attach(std::string_view array,
                                                     JsonValue entry) {
  const JsonValue* existing = json_.Find(array);
  JsonValue list = existing != nullptr ? *existing : JsonValue::Array();
  list.PushBack(std::move(entry));
  json_.Set(array, std::move(list));
  return *this;
}

BenchReporter::BenchReporter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

BenchReporter::~BenchReporter() { Flush(); }

BenchReporter::Record& BenchReporter::NewRecord() {
  records_.push_back(Record(bench_name_));
  return records_.back();
}

std::string BenchReporter::RenderJsonLines() const {
  std::string out;
  for (const Record& r : records_) {
    out += r.json_.Dump();
    out += '\n';
  }
  return out;
}

void BenchReporter::Flush() {
  if (records_.empty()) return;
  const std::string lines = RenderJsonLines();
  const char* path = std::getenv(kBenchJsonEnvVar);
  bool to_stdout = true;
  if (path != nullptr && path[0] != '\0') {
    std::FILE* f = std::fopen(path, "a");
    if (f != nullptr) {
      std::fwrite(lines.data(), 1, lines.size(), f);
      std::fclose(f);
      to_stdout = false;
    } else {
      // Never drop records: fall back to the stdout path below.
      std::fprintf(stderr,
                   "bench_report: cannot open %s for append; writing"
                   " records to stdout instead\n",
                   path);
    }
  }
  if (to_stdout) {
    std::printf("# bench-json: %zu record(s) for %s\n", records_.size(),
                bench_name_.c_str());
    std::fwrite(lines.data(), 1, lines.size(), stdout);
  }
  records_.clear();
}

std::optional<BenchFile> LoadBenchFile(const std::string& path,
                                       std::string* error) {
  const std::optional<std::string> text = ReadTextFile(path);
  if (!text.has_value()) {
    *error = "cannot read " + path;
    return std::nullopt;
  }
  BenchFile file;
  // A bench_runner document is one JSON object holding "records" and/or
  // "summaries"; a one-line JSON-lines file parses whole too, but as a
  // bare record it has neither.
  std::optional<JsonValue> whole = JsonValue::Parse(*text);
  if (whole.has_value() && whole->IsObject() &&
      (whole->Find("records") != nullptr ||
       whole->Find("summaries") != nullptr)) {
    if (const JsonValue* records = whole->Find("records")) {
      if (!records->IsArray()) {
        *error = path + ": \"records\" is not an array";
        return std::nullopt;
      }
      file.records.reserve(records->size());
      for (std::size_t i = 0; i < records->size(); ++i) {
        file.records.push_back(records->at(i));
      }
    }
    if (const JsonValue* summaries = whole->Find("summaries")) {
      file.summaries = *summaries;
    }
    return file;
  }
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text->size()) {
    std::size_t end = text->find('\n', pos);
    if (end == std::string::npos) end = text->size();
    const std::string_view line(text->data() + pos, end - pos);
    pos = end + 1;
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos || line[first] == '#') continue;
    std::optional<JsonValue> record = JsonValue::Parse(line);
    if (!record.has_value() || !record->IsObject()) {
      *error = path + ":" + std::to_string(line_no) + ": not a JSON object";
      return std::nullopt;
    }
    file.records.push_back(std::move(*record));
  }
  return file;
}

std::optional<std::vector<JsonValue>> LoadAttachedEntries(
    const std::vector<std::string>& paths, std::string_view array,
    std::string* error) {
  std::vector<JsonValue> entries;
  for (const std::string& path : paths) {
    std::optional<BenchFile> file = LoadBenchFile(path, error);
    if (!file.has_value()) return std::nullopt;
    for (std::size_t r = 0; r < file->records.size(); ++r) {
      const JsonValue* list = file->records[r].Find(array);
      if (list == nullptr) continue;
      bool ok = list->IsArray();
      for (std::size_t i = 0; ok && i < list->size(); ++i) {
        ok = list->at(i).IsObject();
        if (ok) entries.push_back(list->at(i));
      }
      if (!ok) {
        *error = path + ": record " + std::to_string(r + 1) + ": \"" +
                 std::string(array) + "\" is not an array of objects";
        return std::nullopt;
      }
    }
  }
  return entries;
}

}  // namespace lamp::obs
