#include "mpc/skew.h"

#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "cq/eval.h"
#include "distribution/hypercube.h"
#include "distribution/policies.h"
#include "mpc/heavy_hitters.h"
#include "mpc/simulator.h"

namespace lamp {

namespace {

/// Structural description of a triangle query R(x,y), S(y,z), T(z,x).
struct TriangleShape {
  RelationId r, s, t;
  std::size_t r_y_pos, s_y_pos;  // Position of y in R and in S.
};

std::size_t VarPos(const Atom& atom, VarId v) {
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    if (atom.terms[i].IsVar() && atom.terms[i].var == v) return i;
  }
  LAMP_CHECK_MSG(false, "variable not in atom");
  return 0;
}

VarId SharedVar(const Atom& a, const Atom& b) {
  for (const Term& ta : a.terms) {
    if (!ta.IsVar()) continue;
    for (const Term& tb : b.terms) {
      if (tb.IsVar() && tb.var == ta.var) return ta.var;
    }
  }
  LAMP_CHECK_MSG(false, "atoms share no variable");
  return 0;
}

TriangleShape AnalyzeTriangle(const ConjunctiveQuery& q) {
  LAMP_CHECK_MSG(q.body().size() == 3, "triangle query needs 3 atoms");
  for (const Atom& atom : q.body()) {
    LAMP_CHECK_MSG(atom.terms.size() == 2, "triangle atoms must be binary");
    LAMP_CHECK(atom.terms[0].IsVar() && atom.terms[1].IsVar());
  }
  const Atom& ra = q.body()[0];
  const Atom& sa = q.body()[1];
  const Atom& ta = q.body()[2];
  LAMP_CHECK_MSG(ra.relation != sa.relation && sa.relation != ta.relation &&
                     ra.relation != ta.relation,
                 "triangle relations must be distinct");
  TriangleShape shape;
  shape.r = ra.relation;
  shape.s = sa.relation;
  shape.t = ta.relation;
  const VarId y = SharedVar(ra, sa);
  shape.r_y_pos = VarPos(ra, y);
  shape.s_y_pos = VarPos(sa, y);
  return shape;
}

}  // namespace

MpcRunResult SkewResilientTriangle(const ConjunctiveQuery& triangle,
                                   const Instance& input,
                                   std::size_t num_servers,
                                   std::uint64_t seed,
                                   std::size_t heavy_threshold) {
  const TriangleShape shape = AnalyzeTriangle(triangle);
  const std::size_t p = num_servers;

  const std::size_t m =
      std::max({input.NumRows(shape.r), input.NumRows(shape.s),
                input.NumRows(shape.t)});
  if (heavy_threshold == 0) {
    heavy_threshold = static_cast<std::size_t>(
        static_cast<double>(m) /
        std::cbrt(static_cast<double>(std::max<std::size_t>(p, 1))));
    if (heavy_threshold == 0) heavy_threshold = 1;
  }

  const std::set<Value> heavy =
      JoinHeavyHitters(input, shape.r, shape.r_y_pos, shape.s, shape.s_y_pos,
                       heavy_threshold);

  auto y_of = [&shape](const Fact& f) -> Value {
    return f.relation == shape.r ? f.args[shape.r_y_pos]
                                 : f.args[shape.s_y_pos];
  };
  auto is_heavy_fact = [&](const Fact& f) {
    return (f.relation == shape.r || f.relation == shape.s) &&
           heavy.count(y_of(f)) > 0;
  };

  // Round 1: HyperCube over the light part; heavy R/S tuples stay put.
  const HypercubePolicy grid(triangle, UniformShares(triangle, p),
                             MakeUniverse(1), seed);
  MpcSimulator sim(p);
  sim.LoadInput(input);
  sim.RunRound(
      [&](NodeId source, const Fact& f) -> std::vector<NodeId> {
        if (is_heavy_fact(f)) return {source};
        std::vector<NodeId> targets = grid.ResponsibleNodes(f);
        if (f.relation == shape.t) {
          targets.push_back(source);  // T is needed again in round 2.
        }
        return targets;
      },
      [&](NodeId, const Instance& received) {
        return MpcSimulator::ComputeResult{received,
                                           Evaluate(triangle, received)};
      });

  // Round 2: residual sub-grids, one per heavy value.
  if (!heavy.empty()) {
    const std::vector<Value> heavy_list(heavy.begin(), heavy.end());
    const std::size_t h = heavy_list.size();
    const std::size_t p_b = std::max<std::size_t>(1, p / h);
    const auto g = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::floor(std::sqrt(static_cast<double>(p_b)) + 1e-9)));

    auto grid_index = [&](std::size_t heavy_idx) -> std::size_t {
      return (heavy_idx * p_b) % p;  // Base server of the sub-grid.
    };
    auto cell = [&](std::size_t heavy_idx, std::uint64_t row,
                    std::uint64_t col) -> NodeId {
      return static_cast<NodeId>(
          (grid_index(heavy_idx) + (row % g) * g + (col % g)) % p);
    };
    auto heavy_index_of = [&](Value v) -> std::size_t {
      for (std::size_t i = 0; i < heavy_list.size(); ++i) {
        if (heavy_list[i] == v) return i;
      }
      return heavy_list.size();
    };

    sim.RunRound(
        [&](NodeId, const Fact& f) -> std::vector<NodeId> {
          std::vector<NodeId> targets;
          if ((f.relation == shape.r || f.relation == shape.s) &&
              heavy.count(y_of(f)) > 0) {
            const std::size_t idx = heavy_index_of(y_of(f));
            // The non-y value of the tuple picks the row (R) / column (S).
            const std::size_t other_pos =
                f.relation == shape.r ? 1 - shape.r_y_pos : 1 - shape.s_y_pos;
            const std::uint64_t hash_val =
                HashMix(static_cast<std::uint64_t>(f.args[other_pos].v) ^
                        HashMix(seed + 77));
            if (f.relation == shape.r) {
              for (std::size_t col = 0; col < g; ++col) {
                targets.push_back(cell(idx, hash_val, col));
              }
            } else {
              for (std::size_t row = 0; row < g; ++row) {
                targets.push_back(cell(idx, row, hash_val));
              }
            }
          } else if (f.relation == shape.t) {
            // T(z,x): one exact cell per sub-grid. Row is keyed by x (the
            // variable shared with R), column by z (shared with S).
            const Atom& t_atom = triangle.body()[2];
            const Atom& r_atom = triangle.body()[0];
            const VarId x = SharedVar(t_atom, r_atom);
            const std::size_t t_x_pos = VarPos(t_atom, x);
            const std::uint64_t row =
                HashMix(static_cast<std::uint64_t>(f.args[t_x_pos].v) ^
                        HashMix(seed + 77));
            const std::uint64_t col =
                HashMix(static_cast<std::uint64_t>(f.args[1 - t_x_pos].v) ^
                        HashMix(seed + 77));
            for (std::size_t idx = 0; idx < h; ++idx) {
              targets.push_back(cell(idx, row, col));
            }
          }
          return targets;
        },
        [&](NodeId, const Instance& received) {
          return MpcSimulator::ComputeResult{Instance(),
                                             Evaluate(triangle, received)};
        });
  }

  return {sim.output(), sim.stats()};
}

}  // namespace lamp
