#include "sa/plan/rewrite.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace lamp::sa::plan {

namespace {

/// Size ratio above which a semi-join reducer pre-pass pays for itself:
/// shipping the small side's keys costs ~d_small tuples, so the big side
/// must dwarf the small one before the saved shuffle volume wins.
constexpr double kReducerSizeRatio = 4.0;

/// Minimum shrink a reducer must deliver to be recorded (a 5% trim is
/// not worth an extra pass).
constexpr double kReducerMaxKeep = 0.75;

std::string FormatTuples(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

}  // namespace

std::string_view RewriteKindName(RewriteKind kind) {
  switch (kind) {
    case RewriteKind::kFilterPushdown:
      return "filter_pushdown";
    case RewriteKind::kSemiJoinReducer:
      return "semi_join_reducer";
    case RewriteKind::kCrossProduct:
      return "cross_product";
  }
  return "unknown";
}

std::vector<Rewrite> ApplyRewrites(const ConjunctiveQuery& query,
                                   const Estimator& estimator,
                                   std::vector<AtomEstimate>& atoms) {
  std::vector<Rewrite> applied;
  const std::vector<Atom>& body = query.body();

  // Pass 1: filter pushdown. Constants select by the sketched frequency
  // of the constant (heavy values keep their true mass; unknown values
  // get the uniform 1/distinct average); a variable repeated within one
  // atom selects by 1/distinct of its second position.
  for (std::size_t a = 0; a < body.size() && a < atoms.size(); ++a) {
    AtomEstimate& atom = atoms[a];
    if (!atom.in_catalog || atom.cardinality <= 0.0) continue;
    double selectivity = 1.0;
    std::string what;
    std::map<VarId, std::size_t> seen_var;
    for (std::size_t pos = 0; pos < body[a].terms.size(); ++pos) {
      const Term& term = body[a].terms[pos];
      if (term.IsConst()) {
        const double freq = estimator.FrequencyAt(a, pos, term.constant);
        selectivity *= atom.cardinality > 0 ? freq / atom.cardinality : 0.0;
        if (!what.empty()) what += ", ";
        what += "$";
        what += std::to_string(pos);
        what += "=";
        what += std::to_string(term.constant.v);
        continue;
      }
      auto [it, inserted] = seen_var.emplace(term.var, pos);
      if (!inserted) {
        const double d = std::max(1.0, estimator.DistinctAt(a, pos));
        selectivity *= 1.0 / d;
        if (!what.empty()) what += ", ";
        what += "$";
        what += std::to_string(it->second);
        what += "=$";
        what += std::to_string(pos);
      }
    }
    if (selectivity >= 1.0 || what.empty()) continue;
    Rewrite rw;
    rw.kind = RewriteKind::kFilterPushdown;
    rw.atom = a;
    rw.before = atom.effective;
    atom.effective *= selectivity;
    rw.after = atom.effective;
    rw.description = "push filter [" + what + "] on " + atom.relation +
                     " into the routing predicate: ~" +
                     FormatTuples(rw.before) + " -> ~" +
                     FormatTuples(rw.after) + " tuples shuffled";
    applied.push_back(std::move(rw));
  }

  // Pass 2: semi-join reducers. For each atom, the strongest shrink any
  // join partner offers; at most one reducer per atom.
  for (std::size_t a = 0; a < body.size() && a < atoms.size(); ++a) {
    AtomEstimate& atom = atoms[a];
    if (!atom.in_catalog || atom.effective <= 0.0) continue;
    double best_keep = 1.0;
    std::size_t best_partner = 0;
    VarId best_var = 0;
    for (std::size_t b = 0; b < body.size() && b < atoms.size(); ++b) {
      if (b == a || !atoms[b].in_catalog) continue;
      if (atom.effective < kReducerSizeRatio * atoms[b].effective) continue;
      for (std::size_t pos = 0; pos < body[a].terms.size(); ++pos) {
        if (!body[a].terms[pos].IsVar()) continue;
        for (std::size_t bpos = 0; bpos < body[b].terms.size(); ++bpos) {
          if (!body[b].terms[bpos].IsVar() ||
              body[b].terms[bpos].var != body[a].terms[pos].var) {
            continue;
          }
          const double d_big = estimator.DistinctAt(a, pos);
          const double d_small = estimator.DistinctAt(b, bpos);
          if (d_big <= 0.0 || d_small <= 0.0) continue;
          const double keep = std::min(1.0, d_small / d_big);
          if (keep < best_keep) {
            best_keep = keep;
            best_partner = b;
            best_var = body[a].terms[pos].var;
          }
        }
      }
    }
    if (best_keep >= kReducerMaxKeep) continue;
    Rewrite rw;
    rw.kind = RewriteKind::kSemiJoinReducer;
    rw.atom = a;
    rw.before = atom.effective;
    atom.effective *= best_keep;
    rw.after = atom.effective;
    rw.description = "semi-join reduce " + atom.relation + " by " +
                     atoms[best_partner].relation + " on " +
                     query.VarName(best_var) + " before the shuffle: ~" +
                     FormatTuples(rw.before) + " -> ~" +
                     FormatTuples(rw.after) + " tuples";
    applied.push_back(std::move(rw));
  }

  // Pass 3: cross-product detection (hazard, no size change).
  const std::vector<std::size_t> components = AtomComponents(body);
  std::size_t num_components = 0;
  for (const std::size_t c : components) {
    num_components = std::max(num_components, c + 1);
  }
  if (num_components > 1) {
    std::size_t second_start = 0;
    for (std::size_t a = 0; a < components.size(); ++a) {
      if (components[a] != 0) {
        second_start = a;
        break;
      }
    }
    double total = 0.0;
    for (const AtomEstimate& atom : atoms) total += atom.effective;
    Rewrite rw;
    rw.kind = RewriteKind::kCrossProduct;
    rw.atom = second_start;
    rw.before = total;
    rw.after = total;
    rw.description =
        "body splits into " + std::to_string(num_components) +
        " components sharing no variable: the join is a cross product and "
        "every one-round strategy degenerates to broadcast";
    applied.push_back(std::move(rw));
  }
  return applied;
}

}  // namespace lamp::sa::plan
