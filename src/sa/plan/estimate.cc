#include "sa/plan/estimate.h"

#include <algorithm>
#include <map>
#include <set>

#include "transport/wire.h"

namespace lamp::sa::plan {

namespace {

using obs::audit::ColumnStats;
using obs::audit::RelationStats;
using obs::audit::SketchEntry;

/// Guaranteed lower bound on the true frequency of a sketch entry. Used
/// for join-size corrections, where an overestimate would inflate the
/// output estimate; strategy costing (cost.cc) uses the upper-bound
/// count instead, where missing a heavy hitter is the expensive error.
double LowerFrequency(const SketchEntry& entry) {
  return static_cast<double>(entry.count - entry.error);
}

}  // namespace

Estimator::Estimator(const ConjunctiveQuery& query, const Schema& schema,
                     const obs::audit::Catalog& catalog)
    : query_(query), schema_(schema), catalog_(catalog) {
  relations_.reserve(query.body().size());
  for (const Atom& atom : query.body()) {
    relations_.push_back(catalog.Find(schema.NameOf(atom.relation)));
  }
}

std::vector<AtomEstimate> Estimator::InitialAtoms() const {
  std::vector<AtomEstimate> atoms;
  atoms.reserve(query_.body().size());
  for (std::size_t a = 0; a < query_.body().size(); ++a) {
    const Atom& atom = query_.body()[a];
    AtomEstimate est;
    est.atom_index = a;
    est.relation = schema_.NameOf(atom.relation);
    est.arity = atom.terms.size();
    const RelationStats* stats = relations_[a];
    est.in_catalog = stats != nullptr;
    est.cardinality =
        stats == nullptr ? 0.0 : static_cast<double>(stats->cardinality);
    est.effective = est.cardinality;
    // One encoded row on the wire: relation varint + arity varint + one
    // zigzag varint per column at the column's catalog mean width
    // (lamp.wire.v1 PutRow; frame overhead is amortized per batch and
    // excluded here).
    est.fact_bytes =
        static_cast<double>(transport::VarintSize(atom.relation) +
                            transport::VarintSize(atom.terms.size()));
    if (stats != nullptr) {
      for (const ColumnStats& col : stats->columns) {
        est.fact_bytes += col.avg_bytes;
      }
    }
    atoms.push_back(std::move(est));
  }
  return atoms;
}

const ColumnStats* Estimator::ColumnAt(std::size_t a, std::size_t pos) const {
  if (a >= relations_.size() || relations_[a] == nullptr) return nullptr;
  const RelationStats& stats = *relations_[a];
  if (pos >= stats.columns.size()) return nullptr;
  return &stats.columns[pos];
}

double Estimator::DistinctAt(std::size_t a, std::size_t pos) const {
  const ColumnStats* col = ColumnAt(a, pos);
  return col == nullptr ? 0.0 : static_cast<double>(col->distinct);
}

double Estimator::FrequencyAt(std::size_t a, std::size_t pos,
                              Value value) const {
  const ColumnStats* col = ColumnAt(a, pos);
  if (col == nullptr) return 0.0;
  for (const SketchEntry& entry : col->heavy) {
    if (entry.value == value.v) return static_cast<double>(entry.count);
  }
  if (col->distinct == 0) return 0.0;
  const double cardinality =
      relations_[a] == nullptr
          ? 0.0
          : static_cast<double>(relations_[a]->cardinality);
  return cardinality / static_cast<double>(col->distinct);
}

std::vector<SketchEntry> Estimator::HeavyEntries(std::size_t a,
                                                 std::size_t pos) const {
  std::vector<SketchEntry> entries;
  const ColumnStats* col = ColumnAt(a, pos);
  if (col == nullptr || col->distinct == 0 || relations_[a] == nullptr) {
    return entries;
  }
  const double uniform =
      static_cast<double>(relations_[a]->cardinality) /
      static_cast<double>(col->distinct);
  for (const SketchEntry& entry : col->heavy) {
    if (LowerFrequency(entry) > uniform) entries.push_back(entry);
  }
  return entries;
}

double Estimator::EstimateOutput(
    const std::vector<AtomEstimate>& atoms) const {
  if (atoms.empty()) return 0.0;
  // var -> occurrences as (atom index, max-distinct over the positions the
  // var takes in that atom).
  std::map<VarId, std::vector<std::pair<std::size_t, double>>> occurrences;
  for (std::size_t a = 0; a < query_.body().size(); ++a) {
    const Atom& atom = query_.body()[a];
    std::map<VarId, double> per_atom;
    for (std::size_t pos = 0; pos < atom.terms.size(); ++pos) {
      if (!atom.terms[pos].IsVar()) continue;
      const double d = DistinctAt(a, pos);
      auto [it, inserted] = per_atom.emplace(atom.terms[pos].var, d);
      if (!inserted) it->second = std::max(it->second, d);
    }
    for (const auto& [v, d] : per_atom) occurrences[v].push_back({a, d});
  }

  double base = 1.0;
  for (const AtomEstimate& atom : atoms) base *= atom.effective;
  for (const auto& [v, occ] : occurrences) {
    if (occ.size() < 2) continue;
    double max_distinct = 1.0;
    for (const auto& [a, d] : occ) max_distinct = std::max(max_distinct, d);
    for (std::size_t i = 1; i < occ.size(); ++i) base /= max_distinct;
  }

  // Heavy-hitter correction, binary single-shared-variable joins only:
  // split the estimate into the sketched heavy values (frequency product,
  // guaranteed lower bounds) and a uniform residual over the remaining
  // distincts. This is where a Zipf column departs from m_l*m_r/max(d).
  std::vector<std::pair<VarId, std::pair<std::size_t, std::size_t>>> shared;
  if (query_.body().size() == 2 && atoms.size() == 2) {
    const Atom& l = query_.body()[0];
    const Atom& r = query_.body()[1];
    std::set<VarId> seen;
    for (std::size_t i = 0; i < l.terms.size(); ++i) {
      if (!l.terms[i].IsVar()) continue;
      for (std::size_t j = 0; j < r.terms.size(); ++j) {
        if (r.terms[j].IsVar() && r.terms[j].var == l.terms[i].var &&
            seen.insert(l.terms[i].var).second) {
          shared.push_back({l.terms[i].var, {i, j}});
        }
      }
    }
  }
  if (shared.size() == 1) {
    const auto [l_pos, r_pos] = shared.front().second;
    const ColumnStats* lc = ColumnAt(0, l_pos);
    const ColumnStats* rc = ColumnAt(1, r_pos);
    if (lc != nullptr && rc != nullptr && lc->distinct > 0 &&
        rc->distinct > 0) {
      // Selectivity the rewrites already applied to each side.
      const double l_scale =
          atoms[0].cardinality > 0 ? atoms[0].effective / atoms[0].cardinality
                                   : 0.0;
      const double r_scale =
          atoms[1].cardinality > 0 ? atoms[1].effective / atoms[1].cardinality
                                   : 0.0;
      double heavy = 0.0;
      double covered_l = 0.0;
      double covered_r = 0.0;
      std::size_t matched = 0;
      for (const SketchEntry& le : lc->heavy) {
        for (const SketchEntry& re : rc->heavy) {
          if (le.value != re.value) continue;
          const double fl = LowerFrequency(le);
          const double fr = LowerFrequency(re);
          if (fl <= 0.0 || fr <= 0.0) continue;
          heavy += fl * fr;
          covered_l += fl;
          covered_r += fr;
          ++matched;
        }
      }
      if (matched > 0) {
        const double rest_l =
            std::max(0.0, atoms[0].cardinality - covered_l);
        const double rest_r =
            std::max(0.0, atoms[1].cardinality - covered_r);
        const double rest_d = std::max(
            1.0, static_cast<double>(std::max(lc->distinct, rc->distinct)) -
                     static_cast<double>(matched));
        base = (heavy + rest_l * rest_r / rest_d) * l_scale * r_scale;
      }
    }
  }
  return std::max(base, 0.0);
}

}  // namespace lamp::sa::plan
