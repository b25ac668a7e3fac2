#include "sa/plan/cost.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "mpc/hypercube_run.h"

namespace lamp::sa::plan {

namespace {

using obs::audit::Catalog;
using obs::audit::LoadBound;
using obs::audit::RelationStats;
using obs::audit::SketchEntry;
using obs::audit::Strategy;

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

/// The catalog the bounds.h closed forms are evaluated on: the input
/// catalog with each body relation's cardinality replaced by its
/// rewritten effective size. When no rewrite fired this is the input
/// catalog verbatim, so base_bound is bit-identical to what the audit
/// layer computes (the plan_test property test pins this). Self-joins
/// share one entry per relation name; the larger effective size wins
/// (bounds are per-relation, not per-atom).
Catalog EffectiveCatalog(const Catalog& catalog,
                         const std::vector<AtomEstimate>& atoms) {
  Catalog effective = catalog;
  for (RelationStats& rel : effective.relations) {
    bool rewritten = false;
    double size = 0.0;
    for (const AtomEstimate& atom : atoms) {
      if (atom.relation != rel.name) continue;
      size = std::max(size, atom.effective);
      rewritten = rewritten || atom.effective != atom.cardinality;
    }
    if (rewritten) {
      rel.cardinality = static_cast<std::uint64_t>(std::llround(size));
    }
  }
  return effective;
}

/// Fraction of routed tuples that actually cross the wire: input facts
/// are spread uniformly over the p servers, so each routed copy is
/// already local with probability 1/p (the simulator counts neither its
/// load nor its bytes).
double ShippedFraction(std::size_t p) {
  return p == 0 ? 0.0
               : static_cast<double>(p - 1) / static_cast<double>(p);
}

/// The first variable shared by the two atoms of a binary join, with its
/// positions — the skew-correction key. nullopt when the query is not a
/// binary join on exactly one variable (multi-variable join keys hash
/// jointly; single-value skew does not pin a joint key, so the
/// correction does not apply).
struct SharedVar {
  VarId var = 0;
  std::size_t left_pos = 0;
  std::size_t right_pos = 0;
};

std::optional<SharedVar> SingleSharedVar(const ConjunctiveQuery& query) {
  if (query.body().size() != 2) return std::nullopt;
  const Atom& l = query.body()[0];
  const Atom& r = query.body()[1];
  std::optional<SharedVar> found;
  std::set<VarId> seen;
  for (std::size_t i = 0; i < l.terms.size(); ++i) {
    if (!l.terms[i].IsVar()) continue;
    for (std::size_t j = 0; j < r.terms.size(); ++j) {
      if (!r.terms[j].IsVar() || r.terms[j].var != l.terms[i].var) continue;
      if (!seen.insert(l.terms[i].var).second) continue;
      if (found.has_value()) return std::nullopt;  // Two join variables.
      found = SharedVar{l.terms[i].var, i, j};
    }
  }
  return found;
}

/// Join-value skew candidates of a binary join: every sketched value of
/// either join column, with its per-side frequency (sketch count when
/// the value is in that side's top-k — the upper bound, because missing
/// a pinned server is the expensive mistake — else the uniform
/// average).
struct SkewCandidate {
  Value value;
  double left = 0.0;
  double right = 0.0;
};

std::vector<SkewCandidate> JoinSkewCandidates(const Estimator& estimator,
                                              const SharedVar& shared) {
  std::vector<SkewCandidate> candidates;
  std::set<std::int64_t> seen;
  const auto add_from = [&](std::size_t a, std::size_t pos) {
    for (const SketchEntry& entry : estimator.HeavyEntries(a, pos)) {
      if (!seen.insert(entry.value).second) continue;
      SkewCandidate c;
      c.value = Value{entry.value};
      c.left = estimator.FrequencyAt(0, shared.left_pos, c.value);
      c.right = estimator.FrequencyAt(1, shared.right_pos, c.value);
      candidates.push_back(c);
    }
  };
  add_from(0, shared.left_pos);
  add_from(1, shared.right_pos);
  return candidates;
}

/// Why a strategy cannot run this query, or empty when it can.
std::string BinaryInfeasibility(const ConjunctiveQuery& query,
                                bool needs_shared_var) {
  if (!query.IsPlain()) {
    return "query has negation or inequalities; one-round routers move "
           "positive atoms only";
  }
  if (query.body().size() != 2) {
    return "needs exactly two body atoms, query has " +
           std::to_string(query.body().size());
  }
  if (query.body()[0].relation == query.body()[1].relation) {
    return "self-joins are not supported by the binary-join routers";
  }
  if (needs_shared_var && AtomComponents(query.body())[1] != 0) {
    return "atoms share no variable (cross product): there is no join "
           "key to hash on";
  }
  return "";
}

StrategyPrediction CostRepartition(const ConjunctiveQuery& query,
                                   const Schema& schema,
                                   const Catalog& effective,
                                   const Estimator& estimator,
                                   const std::vector<AtomEstimate>& atoms,
                                   const PlanOptions& options) {
  StrategyPrediction out;
  out.strategy = Strategy::kRepartition;
  out.note = BinaryInfeasibility(query, /*needs_shared_var=*/true);
  if (!out.note.empty()) return out;
  out.feasible = true;

  const std::size_t p = options.p;
  const LoadBound bound =
      obs::audit::RepartitionBound(query, schema, effective, p);
  out.base_bound = bound.tuples;
  const double m_total = atoms[0].effective + atoms[1].effective;

  double pinned = 0.0;
  std::string pinned_note;
  if (const std::optional<SharedVar> shared = SingleSharedVar(query)) {
    for (const SkewCandidate& c :
         JoinSkewCandidates(estimator, *shared)) {
      const double group = c.left + c.right;
      const double load =
          group + std::max(0.0, m_total - group) / static_cast<double>(p);
      if (load > pinned) {
        pinned = load;
        pinned_note = "heavy " + query.VarName(shared->var) + "=" +
                      std::to_string(c.value.v) + " pins ~" + Fmt(group) +
                      " tuples on one server";
      }
    }
  }
  const double shipped = ShippedFraction(p);
  out.predicted_max_load = std::max(out.base_bound, pinned) * shipped;
  out.predicted_tuples = m_total * shipped;
  out.predicted_wire_bytes = (atoms[0].effective * atoms[0].fact_bytes +
                              atoms[1].effective * atoms[1].fact_bytes) *
                             shipped;
  out.formula = "max(m/p, f+rest/p) * (p-1)/p; m=" + Fmt(m_total) +
                ", m/p=" + Fmt(out.base_bound);
  if (pinned > out.base_bound) {
    out.note = pinned_note;
    out.formula += ", pinned=" + Fmt(pinned);
  }
  return out;
}

StrategyPrediction CostFragmentReplicate(
    const ConjunctiveQuery& query, const Schema& schema,
    const Catalog& effective, const std::vector<AtomEstimate>& atoms,
    const PlanOptions& options) {
  StrategyPrediction out;
  out.strategy = Strategy::kFragmentReplicate;
  out.note = BinaryInfeasibility(query, /*needs_shared_var=*/true);
  if (!out.note.empty()) return out;
  out.feasible = true;

  const std::size_t p = options.p;
  const auto g = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(std::sqrt(static_cast<double>(p)) + 1e-9)));
  const LoadBound bound = obs::audit::SqrtPBound(query, schema, effective, p);
  out.base_bound = bound.tuples;
  const double shipped = ShippedFraction(p);
  // Replication is blind to values: the grid load is m/g whatever the
  // skew — that is the whole point of the strategy.
  out.predicted_max_load = out.base_bound * shipped;
  const double m_total = atoms[0].effective + atoms[1].effective;
  out.predicted_tuples = m_total * static_cast<double>(g) * shipped;
  out.predicted_wire_bytes = (atoms[0].effective * atoms[0].fact_bytes +
                              atoms[1].effective * atoms[1].fact_bytes) *
                             static_cast<double>(g) * shipped;
  out.formula = "m/floor(sqrt p) * (p-1)/p; m=" + Fmt(m_total) +
                ", g=" + std::to_string(g) + " (skew-independent)";
  return out;
}

StrategyPrediction CostHyperCube(const ConjunctiveQuery& query,
                                 const Schema& schema,
                                 const Catalog& effective,
                                 const Estimator& estimator,
                                 const std::vector<AtomEstimate>& atoms,
                                 const PlanOptions& options) {
  StrategyPrediction out;
  out.strategy = Strategy::kHyperCube;
  if (!query.IsPlain()) {
    out.note = "query has negation or inequalities; the HyperCube grid "
               "routes positive atoms only";
    return out;
  }
  if (query.body().empty()) {
    out.note = "empty body";
    return out;
  }
  out.feasible = true;

  const std::size_t p = options.p;
  std::vector<double> sizes;
  sizes.reserve(atoms.size());
  for (const AtomEstimate& atom : atoms) sizes.push_back(atom.effective);

  // Share selection: the caller's candidates first (benches pass the
  // shares they actually run, so prediction and measurement share a
  // grid), then the LP rounding and the exhaustive integer optimum, then
  // the uniform fallback inside BestShares. Ties keep the earlier entry.
  std::vector<Shares> candidates = options.share_candidates;
  candidates.push_back(LpRoundedShares(query, p));
  candidates.push_back(OptimizeIntegerShares(query, p, sizes));
  out.shares = BestShares(query, p, sizes, candidates);

  const LoadBound bound =
      obs::audit::HyperCubeBound(query, schema, effective, out.shares);
  out.base_bound = bound.tuples;

  // Skew correction: a heavy value h of variable v pins grid coordinate
  // h_v(h); the pinned cell's expected load replaces the uniform 1/a_v
  // split of v's column with (f + rest/a_v) for every atom containing v.
  double pinned = 0.0;
  std::string pinned_note;
  const std::vector<Atom>& body = query.body();
  for (VarId v = 0; v < query.NumVars(); ++v) {
    const std::size_t share = v < out.shares.size() ? out.shares[v] : 1;
    if (share <= 1) continue;  // A 1-share dimension pins nothing extra.
    // Candidate heavy values of v: sketched values of every column v
    // occupies.
    std::set<std::int64_t> values;
    for (std::size_t a = 0; a < body.size(); ++a) {
      for (std::size_t pos = 0; pos < body[a].terms.size(); ++pos) {
        if (!body[a].terms[pos].IsVar() || body[a].terms[pos].var != v) {
          continue;
        }
        for (const SketchEntry& entry : estimator.HeavyEntries(a, pos)) {
          values.insert(entry.value);
        }
      }
    }
    for (const std::int64_t value : values) {
      double load = 0.0;
      for (std::size_t a = 0; a < body.size(); ++a) {
        // Distinct variables of the atom and v's first position in it.
        std::set<VarId> vars;
        std::optional<std::size_t> v_pos;
        for (std::size_t pos = 0; pos < body[a].terms.size(); ++pos) {
          if (!body[a].terms[pos].IsVar()) continue;
          vars.insert(body[a].terms[pos].var);
          if (body[a].terms[pos].var == v && !v_pos) v_pos = pos;
        }
        double divisor = 1.0;
        for (const VarId u : vars) {
          if (u == v) continue;
          divisor *= static_cast<double>(
              u < out.shares.size() ? std::max<std::size_t>(out.shares[u], 1)
                                    : 1);
        }
        const double m_e = a < atoms.size() ? atoms[a].effective : 0.0;
        if (v_pos) {
          const double f = estimator.FrequencyAt(a, *v_pos, Value{value});
          load += (f + std::max(0.0, m_e - f) /
                           static_cast<double>(share)) /
                  divisor;
        } else {
          // v does not occur in the atom: the pinned coordinate changes
          // nothing, the atom contributes its uniform cell share.
          load += m_e / divisor;
        }
      }
      if (load > pinned) {
        pinned = load;
        pinned_note = "heavy " + query.VarName(v) + "=" +
                      std::to_string(value) + " pins one grid coordinate";
      }
    }
  }

  const double shipped = ShippedFraction(p);
  out.predicted_max_load = std::max(out.base_bound, pinned) * shipped;
  // Replication of atom e: the product of the shares of the variables e
  // does not constrain.
  double tuples = 0.0;
  double bytes = 0.0;
  for (std::size_t a = 0; a < body.size() && a < atoms.size(); ++a) {
    std::set<VarId> vars;
    for (const Term& term : body[a].terms) {
      if (term.IsVar()) vars.insert(term.var);
    }
    double replication = 1.0;
    for (VarId u = 0; u < query.NumVars(); ++u) {
      if (vars.count(u) > 0) continue;
      replication *= static_cast<double>(
          u < out.shares.size() ? std::max<std::size_t>(out.shares[u], 1)
                                : 1);
    }
    tuples += atoms[a].effective * replication;
    bytes += atoms[a].effective * replication * atoms[a].fact_bytes;
  }
  out.predicted_tuples = tuples * shipped;
  out.predicted_wire_bytes = bytes * shipped;
  out.formula =
      "max(sum_e m_e/prod_{v in e} a_v, pinned-cell) * (p-1)/p; " +
      bound.formula;
  if (pinned > out.base_bound) {
    out.note = pinned_note;
    out.formula += ", pinned=" + Fmt(pinned);
  }
  return out;
}

StrategyPrediction CostSharesSkew(const ConjunctiveQuery& query,
                                  const Schema& schema,
                                  const Catalog& effective,
                                  const Estimator& estimator,
                                  const std::vector<AtomEstimate>& atoms,
                                  const PlanOptions& options) {
  StrategyPrediction out;
  out.strategy = Strategy::kSharesSkew;
  out.note = BinaryInfeasibility(query, /*needs_shared_var=*/true);
  if (!out.note.empty()) return out;
  out.feasible = true;

  const std::size_t p = options.p;
  // The guarantee SharesSkew audits against is the skew-independent
  // m/floor(sqrt p); the prediction models the implemented split
  // (mpc/shares_skew.cc): heavy values detected at threshold
  // m_max/sqrt(p), half the servers hash the light values, the rest
  // split into one g x g fragment-replicate sub-grid per heavy value.
  out.base_bound =
      obs::audit::SqrtPBound(query, schema, effective, p).tuples;

  const double m_max = std::max(atoms[0].effective, atoms[1].effective);
  const double m_total = atoms[0].effective + atoms[1].effective;
  double threshold =
      m_max / std::sqrt(static_cast<double>(std::max<std::size_t>(p, 1)));
  if (threshold < 1.0) threshold = 1.0;

  const std::optional<SharedVar> shared = SingleSharedVar(query);
  std::vector<SkewCandidate> heavy;
  std::vector<SkewCandidate> light;
  if (shared) {
    for (const SkewCandidate& c : JoinSkewCandidates(estimator, *shared)) {
      // Runtime detection compares exact per-column counts against the
      // threshold; the sketch count is its upper bound, so detection
      // here errs toward treating borderline values as heavy.
      if (std::max(c.left, c.right) >= threshold) {
        heavy.push_back(c);
      } else {
        light.push_back(c);
      }
    }
  }

  const std::size_t h = heavy.size();
  const std::size_t p_light =
      h == 0 ? p : std::max<std::size_t>(1, p / 2);
  const std::size_t p_b =
      h == 0 ? 0 : std::max<std::size_t>(1, (p - p_light) / h);
  const std::size_t g =
      h == 0 ? 1
             : std::max<std::size_t>(
                   1, static_cast<std::size_t>(std::floor(
                          std::sqrt(static_cast<double>(p_b)) + 1e-9)));

  double heavy_mass = 0.0;
  double heavy_load = 0.0;
  for (const SkewCandidate& c : heavy) {
    heavy_mass += c.left + c.right;
    heavy_load = std::max(heavy_load,
                          (c.left + c.right) / static_cast<double>(g));
  }
  const double m_light = std::max(0.0, m_total - heavy_mass);
  double light_load = m_light / static_cast<double>(p_light);
  for (const SkewCandidate& c : light) {
    const double group = c.left + c.right;
    light_load = std::max(
        light_load, group + std::max(0.0, m_light - group) /
                                static_cast<double>(p_light));
  }

  const double shipped = ShippedFraction(p);
  out.predicted_max_load = std::max(light_load, heavy_load) * shipped;
  out.predicted_tuples =
      (m_light + heavy_mass * static_cast<double>(g)) * shipped;
  // Bytes: split the shipped tuples between the two relations in
  // proportion to their effective sizes (the sketches do not say which
  // side a heavy group's replicas come from precisely enough to matter).
  const double avg_bytes =
      m_total > 0.0 ? (atoms[0].effective * atoms[0].fact_bytes +
                       atoms[1].effective * atoms[1].fact_bytes) /
                          m_total
                    : 0.0;
  out.predicted_wire_bytes = out.predicted_tuples * avg_bytes;
  out.formula = "max(m_light/p_light, f_heavy/g) * (p-1)/p; h=" +
                std::to_string(h) + ", p_light=" + std::to_string(p_light) +
                ", g=" + std::to_string(g) +
                ", threshold=" + Fmt(threshold);
  if (h > 0) {
    out.note = std::to_string(h) +
               " heavy join value(s) over threshold ~" + Fmt(threshold) +
               "; heaviest group ~" + Fmt(heavy_mass) + " tuples";
  }
  return out;
}

}  // namespace

std::vector<StrategyPrediction> CostStrategies(
    const ConjunctiveQuery& query, const Schema& schema,
    const obs::audit::Catalog& catalog, const Estimator& estimator,
    const std::vector<AtomEstimate>& atoms, const PlanOptions& options) {
  const Catalog effective = EffectiveCatalog(catalog, atoms);
  std::vector<StrategyPrediction> out;
  out.push_back(CostRepartition(query, schema, effective, estimator, atoms,
                                options));
  out.push_back(
      CostHyperCube(query, schema, effective, estimator, atoms, options));
  out.push_back(CostSharesSkew(query, schema, effective, estimator, atoms,
                               options));
  out.push_back(
      CostFragmentReplicate(query, schema, effective, atoms, options));
  return out;
}

}  // namespace lamp::sa::plan
