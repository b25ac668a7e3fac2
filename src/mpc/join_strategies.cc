#include "mpc/join_strategies.h"

#include <set>
#include <utility>
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

MpcRunResult RunOneRound(const ConjunctiveQuery& query, const Instance& input,
                         const DistributionPolicy& policy) {
  MpcSimulator sim(policy.NumNodes());
  sim.LoadInput(input);
  sim.RunRound(RouteBy(policy), MpcSimulator::EvaluateQuery(query));
  return {sim.output(), sim.stats()};
}

HashPolicy RepartitionPolicy(const ConjunctiveQuery& query,
                             std::size_t num_servers, std::uint64_t seed,
                             std::vector<Value> universe) {
  const JoinShape shape = AnalyzeBinaryJoin(query);
  HashPolicy policy(num_servers, std::move(universe), seed);
  policy.SetKey(query.body()[0].relation, shape.left_positions);
  policy.SetKey(query.body()[1].relation, shape.right_positions);
  return policy;
}

GridPolicy FragmentReplicatePolicy(const ConjunctiveQuery& query,
                                   std::size_t num_servers,
                                   std::uint64_t seed,
                                   std::vector<Value> universe) {
  AnalyzeBinaryJoin(query);  // Validates the query shape.
  return GridPolicy(num_servers, query.body()[0].relation,
                    query.body()[1].relation, std::move(universe), seed);
}

MpcRunResult RepartitionJoin(const ConjunctiveQuery& query,
                             const Instance& input, std::size_t num_servers,
                             std::uint64_t seed) {
  return RunOneRound(query, input,
                     RepartitionPolicy(query, num_servers, seed));
}

MpcRunResult FragmentReplicateJoin(const ConjunctiveQuery& query,
                                   const Instance& input,
                                   std::size_t num_servers,
                                   std::uint64_t seed) {
  return RunOneRound(query, input,
                     FragmentReplicatePolicy(query, num_servers, seed));
}

}  // namespace lamp
