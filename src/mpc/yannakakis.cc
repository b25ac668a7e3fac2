#include "mpc/yannakakis.h"

#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "mpc/cascade.h"
#include "mpc/simulator.h"

namespace lamp {

namespace {

std::set<VarId> AtomVars(const Atom& atom) {
  std::set<VarId> vars;
  for (const Term& t : atom.terms) {
    if (t.IsVar()) vars.insert(t.var);
  }
  return vars;
}

/// First position of each shared variable (in VarId order) within an atom.
std::vector<std::size_t> SharedPositions(const Atom& atom,
                                         const std::vector<VarId>& shared) {
  std::vector<std::size_t> positions;
  for (VarId v : shared) {
    for (std::size_t i = 0; i < atom.terms.size(); ++i) {
      if (atom.terms[i].IsVar() && atom.terms[i].var == v) {
        positions.push_back(i);
        break;
      }
    }
  }
  LAMP_CHECK(positions.size() == shared.size());
  return positions;
}

std::uint64_t KeyHash(const Fact& fact,
                      const std::vector<std::size_t>& positions,
                      std::uint64_t seed) {
  std::uint64_t h = HashMix(seed);
  for (std::size_t pos : positions) {
    h = HashCombine(h, static_cast<std::uint64_t>(fact.args[pos].v));
  }
  return h;
}

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
  const std::vector<std::size_t> keep_pos =
      SharedPositions(keep_atom, shared);
  const std::vector<std::size_t> filter_pos =
      SharedPositions(filter_atom, shared);
  const RelationId keep_rel = keep_atom.relation;
  const RelationId filter_rel = filter_atom.relation;

  sim.RunRound(
      [&](NodeId source, const Fact& f) -> std::vector<NodeId> {
        if (f.relation == keep_rel) {
          return {static_cast<NodeId>(KeyHash(f, keep_pos, round_seed) %
                                      num_servers)};
        }
        if (f.relation == filter_rel) {
          return {static_cast<NodeId>(KeyHash(f, filter_pos, round_seed) %
                                      num_servers)};
        }
        return {source};
      },
      [&](NodeId, const Instance& received) -> MpcSimulator::ComputeResult {
        std::unordered_set<std::uint64_t> filter_keys;
        received.ForEachFactOf(filter_rel, [&](const Fact& f) {
          filter_keys.insert(KeyHash(f, filter_pos, round_seed));
        });
        Instance next;
        for (const Fact& f : received.AllFacts()) {
          if (f.relation == keep_rel &&
              filter_keys.count(KeyHash(f, keep_pos, round_seed)) == 0) {
            continue;  // Dangling tuple eliminated.
          }
          next.Insert(f);
        }
        return {std::move(next), Instance()};
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

  return {sim.GlobalState(), sim.stats()};
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
