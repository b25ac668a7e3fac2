#include "obs/perfdb.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lamp::obs {

std::string PerfKey::Label() const {
  std::string out = bench;
  out += ' ';
  out += params;
  out += " ×";
  out += std::to_string(threads);
  return out;
}

PerfSummary Summarize(std::vector<std::uint64_t> wall_ns) {
  PerfSummary s;
  if (wall_ns.empty()) return s;
  std::sort(wall_ns.begin(), wall_ns.end());
  s.count = wall_ns.size();
  s.min_ns = wall_ns.front();
  s.max_ns = wall_ns.back();
  double sum = 0.0;
  for (std::uint64_t v : wall_ns) sum += static_cast<double>(v);
  s.mean_ns = sum / static_cast<double>(s.count);
  const std::size_t mid = s.count / 2;
  s.median_ns = (s.count % 2 == 1)
                    ? static_cast<double>(wall_ns[mid])
                    : (static_cast<double>(wall_ns[mid - 1]) +
                       static_cast<double>(wall_ns[mid])) /
                          2.0;
  if (s.count >= 2) {
    double sq = 0.0;
    for (std::uint64_t v : wall_ns) {
      const double d = static_cast<double>(v) - s.mean_ns;
      sq += d * d;
    }
    s.stddev_ns = std::sqrt(sq / static_cast<double>(s.count - 1));
  }
  if (s.mean_ns > 0.0) s.cv = s.stddev_ns / s.mean_ns;
  return s;
}

bool PerfDb::Add(const JsonValue& record, std::string* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!record.IsObject()) return fail("record is not a JSON object");
  const JsonValue* bench = record.Find("bench");
  if (bench == nullptr || !bench->IsString() || bench->AsString().empty()) {
    return fail("missing or non-string \"bench\"");
  }
  const JsonValue* params = record.Find("params");
  if (params == nullptr || !params->IsObject()) {
    return fail("missing or non-object \"params\"");
  }
  const JsonValue* wall_ns = record.Find("wall_ns");
  if (wall_ns == nullptr || !wall_ns->IsNumber()) {
    return fail("missing or non-numeric \"wall_ns\"");
  }
  if (wall_ns->AsInt() < 0) return fail("negative \"wall_ns\"");
  PerfKey key;
  key.bench = bench->AsString();
  key.params = params->Dump();
  const JsonValue* threads = record.Find("threads");
  key.threads =
      (threads != nullptr && threads->IsNumber() && threads->AsInt() >= 1)
          ? static_cast<int>(threads->AsInt())
          : 1;
  records_[key].push_back(record);
  return true;
}

std::size_t PerfDb::NumRecords() const {
  std::size_t n = 0;
  for (const auto& [key, recs] : records_) n += recs.size();
  return n;
}

std::map<PerfKey, PerfSummary> PerfDb::Summaries() const {
  std::map<PerfKey, PerfSummary> out;
  for (const auto& [key, recs] : records_) {
    std::vector<std::uint64_t> samples;
    samples.reserve(recs.size());
    for (const JsonValue& r : recs) {
      samples.push_back(static_cast<std::uint64_t>(r.Find("wall_ns")->AsInt()));
    }
    out.emplace(key, Summarize(std::move(samples)));
  }
  return out;
}

JsonValue PerfDb::RecordsToJson() const {
  JsonValue out = JsonValue::Array();
  for (const auto& [key, recs] : records_) {
    for (const JsonValue& r : recs) out.PushBack(r);
  }
  return out;
}

JsonValue PerfDb::SummariesToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("schema", "lamp.perf_summary.v1");
  JsonValue arr = JsonValue::Array();
  for (const auto& [key, summary] : Summaries()) {
    JsonValue e = JsonValue::Object();
    e.Set("bench", key.bench);
    // params round-trips as the object itself, not the signature string,
    // so baselines stay human-readable and diffable.
    const std::optional<JsonValue> params = JsonValue::Parse(key.params);
    e.Set("params", params.has_value() ? *params : JsonValue::Object());
    e.Set("threads", key.threads);
    e.Set("count", summary.count);
    e.Set("min_ns", static_cast<std::size_t>(summary.min_ns));
    e.Set("median_ns", summary.median_ns);
    e.Set("mean_ns", summary.mean_ns);
    e.Set("max_ns", static_cast<std::size_t>(summary.max_ns));
    e.Set("stddev_ns", summary.stddev_ns);
    e.Set("cv", summary.cv);
    arr.PushBack(std::move(e));
  }
  out.Set("summaries", std::move(arr));
  return out;
}

std::map<PerfKey, PerfSummary> SummariesFromJson(const JsonValue& summaries) {
  std::map<PerfKey, PerfSummary> out;
  const JsonValue* arr = &summaries;
  if (summaries.IsObject()) {
    const JsonValue* inner = summaries.Find("summaries");
    if (inner == nullptr) return out;
    arr = inner;
  }
  if (!arr->IsArray()) return out;
  for (std::size_t i = 0; i < arr->size(); ++i) {
    const JsonValue& e = arr->at(i);
    if (!e.IsObject()) continue;
    const JsonValue* bench = e.Find("bench");
    const JsonValue* params = e.Find("params");
    const JsonValue* median = e.Find("median_ns");
    if (bench == nullptr || !bench->IsString() || params == nullptr ||
        !params->IsObject() || median == nullptr || !median->IsNumber()) {
      continue;
    }
    PerfKey key;
    key.bench = bench->AsString();
    key.params = params->Dump();
    const JsonValue* threads = e.Find("threads");
    key.threads = (threads != nullptr && threads->IsNumber())
                      ? static_cast<int>(threads->AsInt())
                      : 1;
    PerfSummary s;
    s.median_ns = median->AsDouble();
    if (const auto* v = e.Find("count")) {
      s.count = static_cast<std::size_t>(v->AsInt());
    }
    if (const auto* v = e.Find("min_ns")) {
      s.min_ns = static_cast<std::uint64_t>(v->AsInt());
    }
    if (const auto* v = e.Find("max_ns")) {
      s.max_ns = static_cast<std::uint64_t>(v->AsInt());
    }
    if (const auto* v = e.Find("mean_ns")) s.mean_ns = v->AsDouble();
    if (const auto* v = e.Find("stddev_ns")) s.stddev_ns = v->AsDouble();
    if (const auto* v = e.Find("cv")) s.cv = v->AsDouble();
    out.emplace(std::move(key), s);
  }
  return out;
}

std::string_view DiffStatusName(DiffStatus status) {
  switch (status) {
    case DiffStatus::kUnchanged:
      return "ok";
    case DiffStatus::kImproved:
      return "improved";
    case DiffStatus::kRegressed:
      return "REGRESSED";
    case DiffStatus::kNew:
      return "new";
    case DiffStatus::kMissing:
      return "missing";
  }
  return "?";
}

DiffReport DiffSummaries(const std::map<PerfKey, PerfSummary>& baseline,
                         const std::map<PerfKey, PerfSummary>& current,
                         const DiffThresholds& thresholds) {
  DiffReport report;
  report.thresholds = thresholds;
  for (const auto& [key, cur] : current) {
    DiffEntry entry;
    entry.key = key;
    entry.current = cur;
    const auto it = baseline.find(key);
    if (it == baseline.end()) {
      entry.status = DiffStatus::kNew;
      ++report.num_new;
      report.entries.push_back(std::move(entry));
      continue;
    }
    const PerfSummary& base = it->second;
    entry.baseline = base;
    const double delta = cur.median_ns - base.median_ns;
    entry.delta_rel = base.median_ns > 0.0 ? delta / base.median_ns : 0.0;
    entry.noise_ns = std::max(base.stddev_ns, cur.stddev_ns);
    const bool significant =
        std::abs(delta) > thresholds.noise_mult * entry.noise_ns &&
        std::abs(delta) > thresholds.min_delta_ns &&
        std::abs(entry.delta_rel) > thresholds.rel_tolerance;
    if (!significant) {
      entry.status = DiffStatus::kUnchanged;
      ++report.num_unchanged;
    } else if (delta > 0.0) {
      entry.status = DiffStatus::kRegressed;
      ++report.num_regressed;
    } else {
      entry.status = DiffStatus::kImproved;
      ++report.num_improved;
    }
    report.entries.push_back(std::move(entry));
  }
  for (const auto& [key, base] : baseline) {
    if (current.find(key) != current.end()) continue;
    DiffEntry entry;
    entry.key = key;
    entry.baseline = base;
    entry.status = DiffStatus::kMissing;
    ++report.num_missing;
    report.entries.push_back(std::move(entry));
  }
  // Regressions first, then improvements, then the rest; key order within
  // each class (entries were generated in key order).
  std::stable_sort(report.entries.begin(), report.entries.end(),
                   [](const DiffEntry& a, const DiffEntry& b) {
                     const auto rank = [](DiffStatus s) {
                       switch (s) {
                         case DiffStatus::kRegressed:
                           return 0;
                         case DiffStatus::kImproved:
                           return 1;
                         default:
                           return 2;
                       }
                     };
                     return rank(a.status) < rank(b.status);
                   });
  return report;
}

namespace {

std::string FormatMs(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
  return buf;
}

std::string FormatPct(double rel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", rel * 100.0);
  return buf;
}

std::string Truncate(std::string s, std::size_t max) {
  if (s.size() > max) {
    s.resize(max - 1);
    s += "…";
  }
  return s;
}

}  // namespace

std::string DiffReport::RenderConsole() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "perf diff: %zu key(s) — %zu regressed, %zu improved, %zu"
                " unchanged, %zu new, %zu missing\n"
                "thresholds: rel > %.0f%%, delta > %.1fx noise, delta >"
                " %.3fms\n\n",
                entries.size(), num_regressed, num_improved, num_unchanged,
                num_new, num_missing, thresholds.rel_tolerance * 100.0,
                thresholds.noise_mult, thresholds.min_delta_ns / 1e6);
  out += line;
  std::snprintf(line, sizeof(line), "%-9s %-52s %12s %12s %8s %10s\n",
                "status", "bench / params / threads", "base ms", "cur ms",
                "delta", "noise ms");
  out += line;
  for (const DiffEntry& e : entries) {
    const std::string label = Truncate(e.key.Label(), 52);
    const bool has_base = e.status != DiffStatus::kNew;
    const bool has_cur = e.status != DiffStatus::kMissing;
    std::snprintf(line, sizeof(line), "%-9s %-52s %12s %12s %8s %10s\n",
                  std::string(DiffStatusName(e.status)).c_str(), label.c_str(),
                  has_base ? FormatMs(e.baseline.median_ns).c_str() : "-",
                  has_cur ? FormatMs(e.current.median_ns).c_str() : "-",
                  has_base && has_cur ? FormatPct(e.delta_rel).c_str() : "-",
                  has_base && has_cur ? FormatMs(e.noise_ns).c_str() : "-");
    out += line;
  }
  return out;
}

std::string DiffReport::RenderMarkdown() const {
  std::string out = "### Perf comparison\n\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "%zu key(s): **%zu regressed**, %zu improved, %zu unchanged,"
                " %zu new, %zu missing  \n",
                entries.size(), num_regressed, num_improved, num_unchanged,
                num_new, num_missing);
  out += line;
  std::snprintf(line, sizeof(line),
                "thresholds: rel > %.0f%% and delta > %.1fx noise and delta"
                " > %.3f ms\n\n",
                thresholds.rel_tolerance * 100.0, thresholds.noise_mult,
                thresholds.min_delta_ns / 1e6);
  out += line;
  out += "| status | bench | params | threads | base ms | cur ms | delta |"
         " noise ms |\n";
  out += "|---|---|---|---|---:|---:|---:|---:|\n";
  for (const DiffEntry& e : entries) {
    const bool has_base = e.status != DiffStatus::kNew;
    const bool has_cur = e.status != DiffStatus::kMissing;
    out += "| ";
    out += DiffStatusName(e.status);
    out += " | ";
    out += e.key.bench;
    out += " | `";
    out += e.key.params;
    out += "` | ";
    out += std::to_string(e.key.threads);
    out += " | ";
    out += has_base ? FormatMs(e.baseline.median_ns) : "-";
    out += " | ";
    out += has_cur ? FormatMs(e.current.median_ns) : "-";
    out += " | ";
    out += has_base && has_cur ? FormatPct(e.delta_rel) : "-";
    out += " | ";
    out += has_base && has_cur ? FormatMs(e.noise_ns) : "-";
    out += " |\n";
  }
  return out;
}

}  // namespace lamp::obs
