#include "obs/audit/catalog.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "transport/wire.h"

namespace lamp::obs::audit {

std::uint64_t ColumnStats::MaxFrequencyLower() const {
  std::uint64_t best = 0;
  for (const SketchEntry& e : heavy) best = std::max(best, e.count - e.error);
  return best;
}

double RelationStats::SkewEstimate() const {
  double best = 0.0;
  for (const ColumnStats& c : columns) best = std::max(best, c.zipf_s);
  return best;
}

bool RelationStats::HasHeavyHitter(double heavy_fraction) const {
  const double threshold = static_cast<double>(cardinality) * heavy_fraction;
  for (const ColumnStats& c : columns) {
    if (static_cast<double>(c.MaxFrequencyLower()) > threshold) return true;
  }
  return false;
}

const RelationStats* Catalog::Find(std::string_view name) const {
  for (const RelationStats& r : relations) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

std::uint64_t Catalog::CardinalityOf(std::string_view name) const {
  const RelationStats* r = Find(name);
  return r == nullptr ? 0 : r->cardinality;
}

std::uint64_t Catalog::TotalFacts() const {
  std::uint64_t total = 0;
  for (const RelationStats& r : relations) total += r.cardinality;
  return total;
}

JsonValue Catalog::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", "lamp.catalog.v1");
  JsonValue rels = JsonValue::Array();
  for (const RelationStats& r : relations) {
    JsonValue rel = JsonValue::Object();
    rel.Set("name", r.name);
    rel.Set("arity", r.arity);
    rel.Set("cardinality", static_cast<std::int64_t>(r.cardinality));
    rel.Set("skew", r.SkewEstimate());
    JsonValue cols = JsonValue::Array();
    for (const ColumnStats& c : r.columns) {
      JsonValue col = JsonValue::Object();
      col.Set("distinct", c.distinct);
      col.Set("zipf_s", c.zipf_s);
      col.Set("avg_bytes", c.avg_bytes);
      JsonValue heavy = JsonValue::Array();
      for (const SketchEntry& e : c.heavy) {
        JsonValue entry = JsonValue::Object();
        entry.Set("value", e.value);
        entry.Set("count", static_cast<std::int64_t>(e.count));
        entry.Set("error", static_cast<std::int64_t>(e.error));
        heavy.PushBack(std::move(entry));
      }
      col.Set("heavy", std::move(heavy));
      cols.PushBack(std::move(col));
    }
    rel.Set("columns", std::move(cols));
    rels.PushBack(std::move(rel));
  }
  doc.Set("relations", std::move(rels));
  return doc;
}

std::optional<Catalog> Catalog::FromJson(const JsonValue& doc) {
  if (!doc.IsObject()) return std::nullopt;
  const JsonValue* tag = doc.Find("schema");
  if (tag == nullptr || !tag->IsString() ||
      tag->AsString() != "lamp.catalog.v1") {
    return std::nullopt;
  }
  const JsonValue* rels = doc.Find("relations");
  if (rels == nullptr || !rels->IsArray()) return std::nullopt;
  Catalog catalog;
  for (std::size_t i = 0; i < rels->size(); ++i) {
    const JsonValue& rel = rels->at(i);
    const JsonValue* name = rel.Find("name");
    const JsonValue* arity = rel.Find("arity");
    const JsonValue* cardinality = rel.Find("cardinality");
    // An absent "columns" reads as no per-column statistics; consumers
    // bounds-check column positions.
    const JsonValue* cols = rel.Find("columns");
    if (name == nullptr || !name->IsString() || arity == nullptr ||
        cardinality == nullptr || (cols != nullptr && !cols->IsArray())) {
      return std::nullopt;
    }
    RelationStats stats;
    stats.name = name->AsString();
    stats.arity = static_cast<std::size_t>(arity->AsInt());
    stats.cardinality = static_cast<std::uint64_t>(cardinality->AsInt());
    for (std::size_t j = 0; cols != nullptr && j < cols->size(); ++j) {
      const JsonValue& col = cols->at(j);
      const JsonValue* distinct = col.Find("distinct");
      const JsonValue* zipf = col.Find("zipf_s");
      if (distinct == nullptr || zipf == nullptr) return std::nullopt;
      ColumnStats cstats;
      cstats.distinct = static_cast<std::size_t>(distinct->AsInt());
      cstats.zipf_s = zipf->AsDouble();
      if (const JsonValue* avg = col.Find("avg_bytes");
          avg != nullptr && avg->IsNumber()) {
        cstats.avg_bytes = avg->AsDouble();
      }
      if (const JsonValue* heavy = col.Find("heavy");
          heavy != nullptr && heavy->IsArray()) {
        for (std::size_t k = 0; k < heavy->size(); ++k) {
          const JsonValue& e = heavy->at(k);
          const JsonValue* value = e.Find("value");
          const JsonValue* count = e.Find("count");
          const JsonValue* error = e.Find("error");
          if (value == nullptr || count == nullptr || error == nullptr) {
            return std::nullopt;
          }
          cstats.heavy.push_back({value->AsInt(),
                                  static_cast<std::uint64_t>(count->AsInt()),
                                  static_cast<std::uint64_t>(error->AsInt())});
        }
      }
      stats.columns.push_back(std::move(cstats));
    }
    catalog.relations.push_back(std::move(stats));
  }
  return catalog;
}

Catalog BuildCatalog(const Schema& schema, const Instance& instance,
                     const CatalogOptions& options) {
  Catalog catalog;
  for (RelationId rel = 0; rel < schema.NumRelations(); ++rel) {
    const std::size_t arity = schema.ArityOf(rel);
    RelationStats stats;
    stats.name = schema.NameOf(rel);
    stats.arity = arity;

    std::vector<std::unordered_set<std::int64_t>> distinct(arity);
    std::vector<std::uint64_t> value_bytes(arity, 0);
    std::vector<SpaceSavingSketch> sketches;
    sketches.reserve(arity);
    for (std::size_t c = 0; c < arity; ++c) {
      sketches.emplace_back(options.sketch_capacity);
    }
    if (rel < instance.NumRelationIds()) {
      instance.ForEachFactOf(rel, [&](const Fact& f) {
        ++stats.cardinality;
        for (std::size_t c = 0; c < arity && c < f.args.size(); ++c) {
          distinct[c].insert(f.args[c].v);
          value_bytes[c] += transport::ZigzagSize(f.args[c].v);
          sketches[c].Observe(f.args[c].v);
        }
      });
    }
    for (std::size_t c = 0; c < arity; ++c) {
      ColumnStats cstats;
      cstats.distinct = distinct[c].size();
      // Estimate skew from the full sketch (more ranks, better fit), but
      // persist only the top_k heaviest entries.
      cstats.zipf_s = EstimateZipfExponent(sketches[c].Entries());
      cstats.avg_bytes = stats.cardinality == 0
                             ? 0.0
                             : static_cast<double>(value_bytes[c]) /
                                   static_cast<double>(stats.cardinality);
      cstats.heavy = sketches[c].TopK(options.top_k);
      stats.columns.push_back(std::move(cstats));
    }
    catalog.relations.push_back(std::move(stats));
  }
  return catalog;
}

}  // namespace lamp::obs::audit
