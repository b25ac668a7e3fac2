#include "mpc/cascade.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "cq/valuation.h"
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

/// Hash of the values of \p vars (sorted) under an assignment represented
/// as a map from VarId to Value.
std::uint64_t HashSharedVars(const std::vector<VarId>& vars,
                             const std::unordered_map<VarId, Value>& binding,
                             std::uint64_t seed) {
  std::uint64_t h = HashMix(seed);
  for (VarId v : vars) {
    h = HashCombine(h, static_cast<std::uint64_t>(binding.at(v).v));
  }
  return h;
}

/// Tries to bind \p atom against \p fact, extending \p binding. Returns
/// false on mismatch (constants, repeated vars, prior bindings).
bool BindAtom(const Atom& atom, const Fact& fact,
              std::unordered_map<VarId, Value>& binding) {
  if (atom.relation != fact.relation ||
      atom.terms.size() != fact.args.size()) {
    return false;
  }
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& t = atom.terms[i];
    if (t.IsConst()) {
      if (t.constant != fact.args[i]) return false;
      continue;
    }
    auto [it, inserted] = binding.emplace(t.var, fact.args[i]);
    if (!inserted && !(it->second == fact.args[i])) return false;
  }
  return true;
}

}  // namespace

MpcRunResult CascadeJoin(Schema& schema, const ConjunctiveQuery& query,
                         const Instance& input, std::size_t num_servers,
                         std::uint64_t seed) {
  LAMP_CHECK_MSG(query.negated().empty(), "cascade join does not handle negation");
  const std::vector<Atom>& body = query.body();
  LAMP_CHECK(!body.empty());

  const std::vector<std::size_t> order = ConnectedOrder(query);

  // Variable sets of the intermediates: vars_after[i] = vars of atoms
  // order[0..i], sorted (their order defines the intermediate's columns).
  std::vector<std::vector<VarId>> vars_after(order.size());
  {
    std::set<VarId> acc;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::set<VarId> vars = AtomVars(body[order[i]]);
      acc.insert(vars.begin(), vars.end());
      vars_after[i].assign(acc.begin(), acc.end());
    }
  }

  // Synthetic relations for the intermediates.
  std::vector<RelationId> inter_rel(order.size());
  for (std::size_t i = 1; i < order.size(); ++i) {
    inter_rel[i] = schema.AddRelation(
        "__cascade" + std::to_string(seed % 1000) + "_" + std::to_string(i),
        vars_after[i].size());
  }

  MpcSimulator sim(num_servers);
  sim.LoadInput(input);

  // Round 0 is special-cased into round 1's routing: the first two atoms
  // are repartitioned together. Rounds i = 1 .. k-1: join intermediate
  // (i-1) with atom order[i].
  for (std::size_t i = 1; i < order.size(); ++i) {
    const Atom& next_atom = body[order[i]];
    const std::vector<VarId>& prev_vars =
        i == 1 ? vars_after[0] : vars_after[i - 1];
    // Shared variables between the accumulated intermediate and the next
    // atom, in sorted order.
    std::vector<VarId> shared;
    {
      const std::set<VarId> next_vars = AtomVars(next_atom);
      for (VarId v : prev_vars) {
        if (next_vars.count(v) > 0) shared.push_back(v);
      }
    }
    LAMP_CHECK_MSG(!shared.empty(), "cascade step without shared variables");

    const RelationId prev_rel = i == 1 ? body[order[0]].relation
                                       : inter_rel[i - 1];
    const Atom& prev_atom = body[order[0]];  // Only used when i == 1.

    // Relations of atoms still needed in later rounds (stay in place).
    std::set<RelationId> future;
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      future.insert(body[order[j]].relation);
    }

    const std::uint64_t round_seed = HashCombine(seed, i);

    sim.RunRound(
        [&](NodeId source, const Fact& f) -> std::vector<NodeId> {
          // A fact may play several roles (self-joins): collect all targets.
          std::set<NodeId> targets;
          if (f.relation == prev_rel) {
            std::unordered_map<VarId, Value> binding;
            bool ok = true;
            if (i == 1) {
              ok = BindAtom(prev_atom, f, binding);
            } else {
              // Intermediate fact: columns are prev_vars in order.
              for (std::size_t c = 0; c < prev_vars.size(); ++c) {
                binding[prev_vars[c]] = f.args[c];
              }
            }
            if (ok) {
              targets.insert(static_cast<NodeId>(
                  HashSharedVars(shared, binding, round_seed) % num_servers));
            }
          }
          {
            std::unordered_map<VarId, Value> binding;
            if (BindAtom(next_atom, f, binding)) {
              targets.insert(static_cast<NodeId>(
                  HashSharedVars(shared, binding, round_seed) % num_servers));
            }
          }
          if (future.count(f.relation) > 0) {
            targets.insert(source);  // Stays put for a later round.
          }
          return {targets.begin(), targets.end()};
        },
        [&](NodeId, const Instance& received) -> MpcSimulator::ComputeResult {
          // Local join: hash next_atom's facts by shared values, then
          // extend each intermediate tuple.
          std::unordered_map<std::uint64_t,
                             std::vector<std::unordered_map<VarId, Value>>>
              by_key;
          received.ForEachFactOf(next_atom.relation, [&](const Fact& f) {
            std::unordered_map<VarId, Value> binding;
            if (!BindAtom(next_atom, f, binding)) return;
            by_key[HashSharedVars(shared, binding, round_seed)]
                .push_back(std::move(binding));
          });

          Instance next_state;
          auto emit = [&](const std::unordered_map<VarId, Value>& binding) {
            std::vector<Value> args;
            args.reserve(vars_after[i].size());
            for (VarId v : vars_after[i]) args.push_back(binding.at(v));
            next_state.Insert(Fact(inter_rel[i], std::move(args)));
          };

          auto extend = [&](std::unordered_map<VarId, Value> base) {
            const std::uint64_t key =
                HashSharedVars(shared, base, round_seed);
            auto it = by_key.find(key);
            if (it == by_key.end()) return;
            for (const auto& ext : it->second) {
              std::unordered_map<VarId, Value> merged = base;
              bool ok = true;
              for (const auto& [v, val] : ext) {
                auto [slot, inserted] = merged.emplace(v, val);
                if (!inserted && !(slot->second == val)) {
                  ok = false;
                  break;
                }
              }
              if (ok) emit(merged);
            }
          };

          if (i == 1) {
            received.ForEachFactOf(prev_rel, [&](const Fact& f) {
              std::unordered_map<VarId, Value> binding;
              if (BindAtom(prev_atom, f, binding)) extend(std::move(binding));
            });
          } else {
            received.ForEachFactOf(prev_rel, [&](const Fact& f) {
              std::unordered_map<VarId, Value> binding;
              for (std::size_t c = 0; c < prev_vars.size(); ++c) {
                binding[prev_vars[c]] = f.args[c];
              }
              extend(std::move(binding));
            });
          }

          // Relations for later rounds ride along.
          for (RelationId rel : future) {
            received.ForEachFactOf(
                rel, [&](const Fact& f) { next_state.Insert(f); });
          }

          Instance output;
          if (i + 1 == order.size()) {
            // Final round: apply inequalities and project onto the head.
            next_state.ForEachFactOf(inter_rel[i], [&](const Fact& f) {
              Valuation v(query.NumVars());
              for (std::size_t c = 0; c < vars_after[i].size(); ++c) {
                v.Bind(vars_after[i][c], f.args[c]);
              }
              if (v.SatisfiesInequalities(query)) {
                output.Insert(v.ApplyToAtom(query.head()));
              }
            });
          }
          return {std::move(next_state), std::move(output)};
        });
  }

  // Single-atom query: no rounds were run; evaluate directly with one
  // repartition-free round (broadcast-free: each server filters locally).
  if (order.size() == 1) {
    sim.RunRound(
        [](NodeId source, const Fact&) -> std::vector<NodeId> {
          return {source};
        },
        [&](NodeId, const Instance& received) -> MpcSimulator::ComputeResult {
          Instance output;
          received.ForEachFactOf(body[0].relation, [&](const Fact& f) {
            std::unordered_map<VarId, Value> binding;
            if (!BindAtom(body[0], f, binding)) return;
            Valuation v(query.NumVars());
            for (const auto& [var, val] : binding) v.Bind(var, val);
            if (v.SatisfiesInequalities(query)) {
              output.Insert(v.ApplyToAtom(query.head()));
            }
          });
          return {received, std::move(output)};
        });
  }

  return {sim.output(), sim.stats()};
}

}  // namespace lamp
