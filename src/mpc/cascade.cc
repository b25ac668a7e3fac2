#include "mpc/cascade.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "cq/eval.h"
#include "mpc/simulator.h"

namespace lamp {

namespace {

/// Greedy connected ordering of the body atoms: start with atom 0, then
/// repeatedly append an unused atom sharing a variable with the bound set.
std::vector<std::size_t> ConnectedOrder(const ConjunctiveQuery& query) {
  const std::vector<Atom>& body = query.body();
  std::vector<std::size_t> order = {0};
  std::set<VarId> bound = AtomVars(body[0]);
  std::vector<bool> used(body.size(), false);
  used[0] = true;
  for (std::size_t step = 1; step < body.size(); ++step) {
    std::size_t pick = body.size();
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      for (VarId v : AtomVars(body[i])) {
        if (bound.count(v) > 0) {
          pick = i;
          break;
        }
      }
      if (pick != body.size()) break;
    }
    LAMP_CHECK_MSG(pick != body.size(),
                   "cascade join requires a connected query");
    used[pick] = true;
    order.push_back(pick);
    const std::set<VarId> vars = AtomVars(body[pick]);
    bound.insert(vars.begin(), vars.end());
  }
  return order;
}

}  // namespace

MpcRunResult CascadeJoin(Schema& schema, const ConjunctiveQuery& query,
                         const Instance& input, std::size_t num_servers,
                         std::uint64_t seed) {
  LAMP_CHECK_MSG(query.negated().empty(), "cascade join does not handle negation");
  const std::vector<Atom>& body = query.body();
  LAMP_CHECK(!body.empty());

  const std::vector<std::size_t> order = ConnectedOrder(query);

  MpcSimulator sim(num_servers);
  sim.LoadInput(input);

  // Single-atom query: one round in which every server keeps its rows and
  // evaluates the query on them.
  if (order.size() == 1) {
    sim.RunRound(
        [](NodeId source, transport::RowRef, std::vector<NodeId>& targets) {
          targets.push_back(source);
        },
        MpcSimulator::EvaluateQuery(query, /*keep_received=*/true));
    return {sim.output(), sim.stats()};
  }

  // Round i joins `prev` (atom order[0] when i = 1, else the intermediate
  // of round i-1, whose columns are the variables bound so far, sorted)
  // with atom order[i]: a two-atom CQ with the query's own variable ids,
  // evaluated under a hash repartition on the variables the two share.
  Atom prev = body[order[0]];
  std::set<VarId> bound = AtomVars(prev);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const Atom& next = body[order[i]];
    const std::set<VarId> next_vars = AtomVars(next);
    std::vector<VarId> shared;
    for (VarId v : bound) {
      if (next_vars.count(v) > 0) shared.push_back(v);
    }
    LAMP_CHECK_MSG(!shared.empty(), "cascade step without shared variables");
    bound.insert(next_vars.begin(), next_vars.end());
    const bool last = i + 1 == order.size();

    ConjunctiveQuery step;
    for (VarId v = 0; v < query.NumVars(); ++v) step.VarIdOf(query.VarName(v));
    step.AddBodyAtom(prev);
    step.AddBodyAtom(next);
    if (last) {
      // The last round evaluates the head and the inequalities.
      step.SetHead(query.head());
      for (const auto& [lhs, rhs] : query.inequalities()) {
        step.AddInequality(lhs, rhs);
      }
    } else {
      std::vector<Term> columns;
      for (VarId v : bound) columns.push_back(Term::Var(v));
      const RelationId intermediate = schema.AddRelation(
          "__cascade" + std::to_string(seed % 1000) + "_" + std::to_string(i),
          columns.size());
      step.SetHead(Atom(intermediate, std::move(columns)));
    }
    const std::vector<std::size_t> prev_pos = KeyPositions(prev, shared);
    const std::vector<std::size_t> next_pos = KeyPositions(next, shared);

    // Relations of atoms still needed in later rounds (stay in place).
    std::vector<RelationId> future;
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      future.push_back(body[order[j]].relation);
    }
    std::sort(future.begin(), future.end());
    future.erase(std::unique(future.begin(), future.end()), future.end());

    const std::uint64_t round_seed = HashCombine(seed, i);
    const MpcSimulator::Router route = [&](NodeId source,
                                           transport::RowRef row,
                                           std::vector<NodeId>& targets) {
      // A row may play several roles (self-joins): up to three targets.
      if (CanBind(prev, row.relation, row.row, row.arity)) {
        targets.push_back(static_cast<NodeId>(
            KeyHash(row.row, prev_pos, round_seed) % num_servers));
      }
      if (CanBind(next, row.relation, row.row, row.arity)) {
        targets.push_back(static_cast<NodeId>(
            KeyHash(row.row, next_pos, round_seed) % num_servers));
      }
      if (std::find(future.begin(), future.end(), row.relation) !=
          future.end()) {
        targets.push_back(source);  // Stays put for a later round.
      }
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
    };

    if (last) {
      sim.RunRound(route, MpcSimulator::EvaluateQuery(step));
      break;
    }
    sim.RunRound(route, [&](NodeId, Instance& received) {
      MpcSimulator::ComputeResult result;
      EvaluateIntoBatches(step, received,
                          [&result](RelationId relation, const Value* rows,
                                    std::size_t count, std::size_t arity) {
                            result.next_state.InsertRows(relation, rows,
                                                         count, arity);
                          });
      for (RelationId rel : future) {
        const RowsView rows = received.RowsOf(rel);
        result.next_state.InsertRows(rel, rows.data, rows.num_rows,
                                     rows.arity);
      }
      return result;
    });
    prev = step.head();
  }

  return {sim.output(), sim.stats()};
}

}  // namespace lamp
