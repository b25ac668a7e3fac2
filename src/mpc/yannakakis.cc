#include "mpc/yannakakis.h"

#include <set>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "mpc/cascade.h"
#include "mpc/simulator.h"

namespace lamp {

namespace {

/// One distributed semijoin round: keep := keep semijoin filter_by, joined
/// on the shared variables of their atoms; all other facts stay put.
void SemijoinRound(MpcSimulator& sim, const Atom& keep_atom,
                   const Atom& filter_atom, std::size_t num_servers,
                   std::uint64_t round_seed) {
  std::vector<VarId> shared;
  {
    const std::set<VarId> keep_vars = AtomVars(keep_atom);
    for (VarId v : AtomVars(filter_atom)) {
      if (keep_vars.count(v) > 0) shared.push_back(v);
    }
  }
  LAMP_CHECK_MSG(!shared.empty(), "join tree edge without shared variables");
  const std::vector<std::size_t> keep_pos = KeyPositions(keep_atom, shared);
  const std::vector<std::size_t> filter_pos =
      KeyPositions(filter_atom, shared);
  const RelationId keep_rel = keep_atom.relation;
  const RelationId filter_rel = filter_atom.relation;

  sim.RunRound(
      [&](NodeId source, transport::RowRef row, std::vector<NodeId>& targets) {
        const bool keep = row.relation == keep_rel;
        if (!keep && row.relation != filter_rel) {
          targets.push_back(source);
          return;
        }
        // A row that cannot bind its atom (a constant or a repeated
        // variable that does not match) is dangling: it is neither kept
        // nor shipped, so it never vouches for a keep row either.
        if (CanBind(keep ? keep_atom : filter_atom, row.relation, row.row,
                    row.arity)) {
          targets.push_back(static_cast<NodeId>(
              KeyHash(row.row, keep ? keep_pos : filter_pos, round_seed) %
              num_servers));
        }
      },
      [&](NodeId, Instance& received) -> MpcSimulator::ComputeResult {
        std::unordered_set<std::uint64_t> filter_keys;
        received.ForEachRow(filter_rel, [&](const Value* row) {
          filter_keys.insert(KeyHash(row, filter_pos, round_seed));
        });
        MpcSimulator::ComputeResult result;
        for (RelationId rel = 0; rel < received.NumRelationIds(); ++rel) {
          const RowsView rows = received.RowsOf(rel);
          if (rel != keep_rel) {
            result.next_state.InsertRows(rel, rows.data, rows.num_rows,
                                         rows.arity);
            continue;
          }
          received.ForEachRow(rel, [&](const Value* row) {
            // A keep row whose key no filter row has is dangling.
            if (filter_keys.count(KeyHash(row, keep_pos, round_seed)) > 0) {
              result.next_state.InsertRow(rel, row, rows.arity);
            }
          });
        }
        return result;
      });
}

}  // namespace

MpcRunResult SemijoinReduce(const ConjunctiveQuery& query,
                            const JoinTree& tree, const Instance& input,
                            std::size_t num_servers, std::uint64_t seed) {
  LAMP_CHECK_MSG(tree.acyclic, "Yannakakis requires an acyclic query");
  LAMP_CHECK_MSG(!query.HasSelfJoin(),
                 "the distributed semijoin phase assumes no self-joins");
  LAMP_CHECK_MSG(query.negated().empty(), "negation is not supported");

  MpcSimulator sim(num_servers);
  sim.LoadInput(input);

  const std::vector<Atom>& body = query.body();
  std::uint64_t round = 0;

  // Upward sweep: leaves first; parent := parent semijoin child.
  for (std::size_t idx : tree.removal_order) {
    if (tree.parent[idx] == JoinTree::kRoot) continue;
    const Atom& child = body[idx];
    const Atom& parent = body[static_cast<std::size_t>(tree.parent[idx])];
    SemijoinRound(sim, parent, child, num_servers,
                  HashCombine(seed, ++round));
  }
  // Downward sweep: root first; child := child semijoin parent.
  for (auto it = tree.removal_order.rbegin(); it != tree.removal_order.rend();
       ++it) {
    if (tree.parent[*it] == JoinTree::kRoot) continue;
    const Atom& child = body[*it];
    const Atom& parent = body[static_cast<std::size_t>(tree.parent[*it])];
    SemijoinRound(sim, child, parent, num_servers,
                  HashCombine(seed, ++round));
  }

  Instance reduced = sim.GlobalState();
  if (body.size() == 1) {
    // No join tree edge, so no round: the reduction is the local selection
    // of the rows that can bind the atom.
    const Atom& atom = body[0];
    Instance kept = reduced.SelectRelations(
        [&atom](RelationId r) { return r != atom.relation; });
    const std::size_t arity = reduced.ArityOf(atom.relation);
    reduced.ForEachRow(atom.relation, [&](const Value* row) {
      if (CanBind(atom, atom.relation, row, arity)) {
        kept.InsertRow(atom.relation, row, arity);
      }
    });
    reduced = std::move(kept);
  }
  return {std::move(reduced), sim.stats()};
}

MpcRunResult YannakakisMpc(Schema& schema, const ConjunctiveQuery& query,
                           const Instance& input, std::size_t num_servers,
                           std::uint64_t seed) {
  const JoinTree tree = BuildJoinTree(query);
  MpcRunResult reduced = SemijoinReduce(query, tree, input, num_servers, seed);

  // Join phase over the reduced database.
  MpcRunResult joined =
      CascadeJoin(schema, query, reduced.output, num_servers, seed + 1);

  MpcRunResult result;
  result.output = std::move(joined.output);
  result.stats = std::move(reduced.stats);
  for (RoundStats& r : joined.stats.rounds) {
    result.stats.rounds.push_back(std::move(r));
  }
  return result;
}

}  // namespace lamp
