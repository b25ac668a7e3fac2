#ifndef LAMP_OBS_AUDIT_CATALOG_H_
#define LAMP_OBS_AUDIT_CATALOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/audit/sketch.h"
#include "obs/json.h"
#include "relational/instance.h"
#include "relational/schema.h"

/// \file
/// The per-relation statistics catalog ("lamp.catalog.v1").
///
/// A single pass over an Instance produces, per relation: cardinality,
/// per-column distinct counts, a Space-Saving heavy-hitter profile and a
/// Zipf skew estimate. The catalog is the shared input of two consumers:
///
///  * the load-bound auditor (obs/audit/bounds.h), which needs relation
///    sizes m_e for the HyperCube expected load sum_e m_e / prod alpha_v
///    and the skew profile to explain why a skewed run blows the
///    skew-free bound;
///  * the ROADMAP-2 cost-based planner, which will pick shares and join
///    orders from exactly these statistics.
///
/// Persisted as JSON so bench harnesses can snapshot the catalog next to
/// the audit records and tools/lamp_obs can render a skew report offline.

namespace lamp::obs::audit {

/// Statistics of one attribute position of one relation.
struct ColumnStats {
  std::size_t distinct = 0;  // Exact distinct-value count.
  double zipf_s = 0.0;       // Estimated Zipf exponent (0 = uniform-ish).
  /// Mean lamp.wire.v1 zigzag-varint size of the column's values, in
  /// bytes — what one value of this column costs on the wire. The
  /// planner multiplies shipped-tuple estimates by these to predict wire
  /// bytes. 0 when the column is empty (or the catalog predates the
  /// field; FromJson tolerates absence).
  double avg_bytes = 0.0;
  std::vector<SketchEntry> heavy;  // Sketch top-k, count descending.

  /// Upper bound on the max frequency of any value in this column
  /// (top sketch count; 0 when the column is empty).
  std::uint64_t MaxFrequencyUpper() const {
    return heavy.empty() ? 0 : heavy.front().count;
  }
  /// Guaranteed lower bound on the max frequency.
  std::uint64_t MaxFrequencyLower() const;
};

/// Statistics of one relation.
struct RelationStats {
  std::string name;
  std::size_t arity = 0;
  std::uint64_t cardinality = 0;
  std::vector<ColumnStats> columns;  // One per attribute position.

  /// Max estimated Zipf exponent over columns — the relation counts as
  /// skewed when any single attribute is heavy-tailed.
  double SkewEstimate() const;

  /// True when some column has a value of frequency > cardinality *
  /// \p heavy_fraction (by the sketch's guaranteed lower bound) — the
  /// "heavy hitter" condition under which one hash bucket must overflow.
  bool HasHeavyHitter(double heavy_fraction) const;
};

struct CatalogOptions {
  std::size_t sketch_capacity = 64;  // Space-Saving counters per column.
  std::size_t top_k = 8;             // Heavy hitters kept in the catalog.
};

/// The statistics catalog of one Instance.
struct Catalog {
  std::vector<RelationStats> relations;  // Schema registration order.

  const RelationStats* Find(std::string_view name) const;

  /// Cardinality of \p name, or 0 when the catalog has no such relation.
  std::uint64_t CardinalityOf(std::string_view name) const;

  /// Total facts over all relations.
  std::uint64_t TotalFacts() const;

  /// Serialises as the "lamp.catalog.v1" document.
  JsonValue ToJson() const;

  /// Parses a "lamp.catalog.v1" document; nullopt when the schema tag or
  /// shape is wrong. A relation without "columns" (a names-and-sizes
  /// catalog, as lamp_lint --catalog takes) has no column statistics.
  static std::optional<Catalog> FromJson(const JsonValue& doc);
};

/// Builds the catalog for \p instance in one pass. Relations registered in
/// \p schema but absent from the instance get cardinality-0 entries, so a
/// bound lookup never silently misses a relation the query mentions.
Catalog BuildCatalog(const Schema& schema, const Instance& instance,
                     const CatalogOptions& options = {});

}  // namespace lamp::obs::audit

#endif  // LAMP_OBS_AUDIT_CATALOG_H_
