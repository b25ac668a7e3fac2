#include "mpc/shares_skew.h"

#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "mpc/heavy_hitters.h"
#include "mpc/simulator.h"

namespace lamp {

namespace {

/// Join-variable positions for the two atoms (first shared variable).
struct SkewJoinShape {
  RelationId left, right;
  std::size_t left_pos = 0, right_pos = 0;
};

SkewJoinShape Analyze(const ConjunctiveQuery& query) {
  LAMP_CHECK_MSG(query.body().size() == 2 && !query.HasSelfJoin(),
                 "SharesSkew join needs two atoms without self-joins");
  const Atom& l = query.body()[0];
  const Atom& r = query.body()[1];
  SkewJoinShape shape;
  shape.left = l.relation;
  shape.right = r.relation;
  for (std::size_t i = 0; i < l.terms.size(); ++i) {
    if (!l.terms[i].IsVar()) continue;
    for (std::size_t j = 0; j < r.terms.size(); ++j) {
      if (r.terms[j].IsVar() && r.terms[j].var == l.terms[i].var) {
        shape.left_pos = i;
        shape.right_pos = j;
        return shape;
      }
    }
  }
  LAMP_CHECK_MSG(false, "atoms share no variable");
  return shape;
}

}  // namespace

MpcRunResult SharesSkewJoin(const ConjunctiveQuery& query,
                            const Instance& input, std::size_t num_servers,
                            std::uint64_t seed,
                            std::size_t heavy_threshold) {
  const SkewJoinShape shape = Analyze(query);
  const std::size_t p = num_servers;
  const std::size_t m = std::max(input.NumRows(shape.left),
                                 input.NumRows(shape.right));
  if (heavy_threshold == 0) {
    heavy_threshold = static_cast<std::size_t>(
        static_cast<double>(m) /
        std::sqrt(static_cast<double>(std::max<std::size_t>(p, 1))));
    if (heavy_threshold == 0) heavy_threshold = 1;
  }

  const std::set<Value> heavy =
      JoinHeavyHitters(input, shape.left, shape.left_pos, shape.right,
                       shape.right_pos, heavy_threshold);
  const std::vector<Value> heavy_list(heavy.begin(), heavy.end());
  const std::size_t h = heavy_list.size();

  // Server split: half for the hashed light region; the rest divided into
  // one fragment-replicate sub-grid per heavy value.
  const std::size_t p_light = h == 0 ? p : std::max<std::size_t>(1, p / 2);
  const std::size_t p_heavy_total = p - p_light;
  const std::size_t p_b =
      h == 0 ? 0 : std::max<std::size_t>(1, p_heavy_total / h);
  const std::size_t g =
      h == 0 ? 0
             : std::max<std::size_t>(
                   1, static_cast<std::size_t>(std::floor(
                          std::sqrt(static_cast<double>(p_b)) + 1e-9)));

  auto heavy_index_of = [&heavy_list](Value v) -> std::size_t {
    for (std::size_t i = 0; i < heavy_list.size(); ++i) {
      if (heavy_list[i] == v) return i;
    }
    return heavy_list.size();
  };
  auto cell = [&](std::size_t idx, std::uint64_t row,
                  std::uint64_t col) -> NodeId {
    const std::size_t base = p_light + (idx * p_b) % std::max<std::size_t>(
                                                         1, p_heavy_total);
    return static_cast<NodeId>((base + (row % g) * g + (col % g)) % p);
  };

  MpcSimulator sim(p);
  sim.LoadInput(input);
  sim.RunRound(
      [&](NodeId, transport::RowRef f, std::vector<NodeId>& targets) {
        const bool is_left = f.relation == shape.left;
        const bool is_right = f.relation == shape.right;
        if (!is_left && !is_right) return;
        const Value join_value =
            is_left ? f.row[shape.left_pos] : f.row[shape.right_pos];
        if (heavy.count(join_value) == 0) {
          // Light: plain hash into the light region.
          const std::uint64_t hv =
              HashMix(static_cast<std::uint64_t>(join_value.v) ^
                      HashMix(seed + 5));
          targets.push_back(static_cast<NodeId>(hv % p_light));
          return;
        }
        // Heavy: fragment-replicate inside the value's sub-grid.
        const std::size_t idx = heavy_index_of(join_value);
        const std::uint64_t spread =
            RowHash(f.relation, f.row, f.arity) ^ HashMix(seed + 9);
        if (is_left) {
          for (std::size_t col = 0; col < g; ++col) {
            targets.push_back(cell(idx, spread, col));
          }
        } else {
          for (std::size_t row = 0; row < g; ++row) {
            targets.push_back(cell(idx, row, spread));
          }
        }
      },
      MpcSimulator::EvaluateQuery(query));
  return {sim.output(), sim.stats()};
}

}  // namespace lamp
