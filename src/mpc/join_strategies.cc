#include "mpc/join_strategies.h"

#include <cmath>
#include <set>
#include <vector>

#include "common/check.h"
#include "mpc/simulator.h"

namespace lamp {

JoinShape AnalyzeBinaryJoin(const ConjunctiveQuery& query) {
  LAMP_CHECK_MSG(query.body().size() == 2,
                 "binary join strategies need exactly two body atoms");
  const Atom& left = query.body()[0];
  const Atom& right = query.body()[1];
  LAMP_CHECK_MSG(left.relation != right.relation,
                 "binary join strategies do not support self-joins");

  const std::set<VarId> left_vars = AtomVars(left);
  std::vector<VarId> shared;
  for (VarId v : AtomVars(right)) {
    if (left_vars.count(v) > 0) shared.push_back(v);
  }
  LAMP_CHECK_MSG(!shared.empty(), "the two atoms share no variable");
  return {KeyPositions(left, shared), KeyPositions(right, shared)};
}

MpcSimulator::Router RepartitionRouter(const ConjunctiveQuery& query,
                                       std::size_t num_servers,
                                       std::uint64_t seed) {
  const JoinShape shape = AnalyzeBinaryJoin(query);
  const RelationId left_rel = query.body()[0].relation;
  const RelationId right_rel = query.body()[1].relation;
  return [shape, left_rel, right_rel, num_servers, seed](
             NodeId, transport::RowRef row, std::vector<NodeId>& targets) {
    if (row.relation == left_rel) {
      targets.push_back(static_cast<NodeId>(
          KeyHash(row.row, shape.left_positions, seed) % num_servers));
    } else if (row.relation == right_rel) {
      targets.push_back(static_cast<NodeId>(
          KeyHash(row.row, shape.right_positions, seed) % num_servers));
    }
  };
}

MpcSimulator::Router FragmentReplicateRouter(const ConjunctiveQuery& query,
                                             std::size_t num_servers,
                                             std::uint64_t seed) {
  AnalyzeBinaryJoin(query);  // Validates the query shape.
  const RelationId left_rel = query.body()[0].relation;
  const RelationId right_rel = query.body()[1].relation;

  const auto g = static_cast<std::size_t>(
      std::floor(std::sqrt(static_cast<double>(num_servers)) + 1e-9));
  LAMP_CHECK(g >= 1);

  return [left_rel, right_rel, g, seed](NodeId, transport::RowRef fact,
                                        std::vector<NodeId>& targets) {
    // Group by the whole-fact hash: balanced regardless of value skew.
    const std::uint64_t group =
        RowHash(fact.relation, fact.row, fact.arity) ^ HashMix(seed);
    if (fact.relation == left_rel) {
      const std::size_t row = group % g;
      for (std::size_t col = 0; col < g; ++col) {
        targets.push_back(static_cast<NodeId>(row * g + col));
      }
    } else if (fact.relation == right_rel) {
      const std::size_t col = group % g;
      for (std::size_t row = 0; row < g; ++row) {
        targets.push_back(static_cast<NodeId>(row * g + col));
      }
    }
  };
}

MpcRunResult RepartitionJoin(const ConjunctiveQuery& query,
                             const Instance& input, std::size_t num_servers,
                             std::uint64_t seed) {
  MpcSimulator sim(num_servers);
  sim.LoadInput(input);
  sim.RunRound(RepartitionRouter(query, num_servers, seed),
               MpcSimulator::EvaluateQuery(query));
  return {sim.output(), sim.stats()};
}

MpcRunResult FragmentReplicateJoin(const ConjunctiveQuery& query,
                                   const Instance& input,
                                   std::size_t num_servers,
                                   std::uint64_t seed) {
  MpcSimulator sim(num_servers);
  sim.LoadInput(input);
  sim.RunRound(FragmentReplicateRouter(query, num_servers, seed),
               MpcSimulator::EvaluateQuery(query));
  return {sim.output(), sim.stats()};
}

}  // namespace lamp
