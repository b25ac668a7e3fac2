#include "mpc/decomposition.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace lamp {

std::size_t TreeDecomposition::Width() const {
  std::size_t width = 0;
  for (const Bag& bag : bags) {
    width = std::max(width, bag.vars.size());
  }
  return width == 0 ? 0 : width - 1;
}

TreeDecomposition BuildTreeDecomposition(const ConjunctiveQuery& query) {
  LAMP_CHECK(!query.body().empty());

  // Variable co-occurrence graph.
  std::set<VarId> alive;
  std::map<VarId, std::set<VarId>> adj;
  for (const Atom& atom : query.body()) {
    const std::set<VarId> vars = AtomVars(atom);
    for (VarId a : vars) {
      alive.insert(a);
      for (VarId b : vars) {
        if (a != b) adj[a].insert(b);
      }
    }
  }
  LAMP_CHECK_MSG(!alive.empty(), "query has no variables");

  // Min-degree elimination. bag_of_var[v] is the index of the bag created
  // when v was eliminated; elimination_order records the sequence.
  TreeDecomposition td;
  std::map<VarId, std::size_t> bag_of_var;
  std::vector<VarId> elimination_order;

  std::set<VarId> remaining = alive;
  while (!remaining.empty()) {
    VarId best = *remaining.begin();
    std::size_t best_degree = adj[best].size();
    for (VarId v : remaining) {
      if (adj[v].size() < best_degree) {
        best = v;
        best_degree = adj[v].size();
      }
    }
    // Bag: best + its current neighbors.
    TreeDecomposition::Bag bag;
    bag.vars = adj[best];
    bag.vars.insert(best);
    bag_of_var[best] = td.bags.size();
    elimination_order.push_back(best);
    td.bags.push_back(std::move(bag));

    // Fill-in: the neighbors become a clique; remove best.
    const std::set<VarId> neighbors = adj[best];
    for (VarId a : neighbors) {
      adj[a].erase(best);
      for (VarId b : neighbors) {
        if (a != b) adj[a].insert(b);
      }
    }
    adj.erase(best);
    remaining.erase(best);
  }

  // Parents: the bag of the first-eliminated variable among
  // bag.vars \ {eliminated var}; the last bag is the root.
  std::map<VarId, std::size_t> elim_position;
  for (std::size_t i = 0; i < elimination_order.size(); ++i) {
    elim_position[elimination_order[i]] = i;
  }
  td.parent.assign(td.bags.size(), TreeDecomposition::kRoot);
  for (std::size_t i = 0; i < td.bags.size(); ++i) {
    std::size_t earliest = td.bags.size();
    for (VarId v : td.bags[i].vars) {
      const std::size_t pos = elim_position[v];
      if (pos > i) earliest = std::min(earliest, pos);
    }
    if (earliest < td.bags.size()) {
      td.parent[i] = static_cast<std::ptrdiff_t>(earliest);
    }
  }

  // Assign each atom to the bag of its earliest-eliminated variable (that
  // bag contains the whole atom by the elimination invariant). Nullary
  // atoms go to the root.
  for (std::size_t a = 0; a < query.body().size(); ++a) {
    const std::set<VarId> vars = AtomVars(query.body()[a]);
    std::size_t target = td.bags.size() - 1;  // Root by default.
    std::size_t earliest = td.bags.size();
    for (VarId v : vars) {
      if (elim_position[v] < earliest) {
        earliest = elim_position[v];
        target = elim_position[v];
      }
    }
    td.bags[target].atom_indices.push_back(a);
  }

  // Contract atom-less bags: merge their variables into the parent (or a
  // child when the root), preserving variable-subtree connectivity.
  bool contracted = true;
  while (contracted) {
    contracted = false;
    for (std::size_t i = 0; i < td.bags.size(); ++i) {
      if (!td.bags[i].atom_indices.empty()) continue;
      if (td.bags.size() == 1) break;  // Keep at least one bag.

      std::size_t merge_into;
      if (td.parent[i] != TreeDecomposition::kRoot) {
        merge_into = static_cast<std::size_t>(td.parent[i]);
      } else {
        // Root: merge into any child.
        merge_into = td.bags.size();
        for (std::size_t j = 0; j < td.bags.size(); ++j) {
          if (td.parent[j] == static_cast<std::ptrdiff_t>(i)) {
            merge_into = j;
            break;
          }
        }
        if (merge_into == td.bags.size()) break;  // Isolated root, keep.
        td.parent[merge_into] = TreeDecomposition::kRoot;
      }
      td.bags[merge_into].vars.insert(td.bags[i].vars.begin(),
                                      td.bags[i].vars.end());
      for (std::size_t j = 0; j < td.bags.size(); ++j) {
        if (td.parent[j] == static_cast<std::ptrdiff_t>(i)) {
          td.parent[j] = static_cast<std::ptrdiff_t>(merge_into);
        }
      }
      // Remove bag i by swapping with the last and fixing indices.
      const std::size_t last = td.bags.size() - 1;
      if (i != last) {
        td.bags[i] = std::move(td.bags[last]);
        // Children of the removed bag were re-parented above, so
        // parent[last] cannot be i.
        td.parent[i] = td.parent[last];
        for (std::size_t j = 0; j < last; ++j) {
          if (td.parent[j] == static_cast<std::ptrdiff_t>(last)) {
            td.parent[j] = static_cast<std::ptrdiff_t>(i);
          }
        }
      }
      td.bags.pop_back();
      td.parent.pop_back();
      contracted = true;
      break;  // Indices changed; restart the scan.
    }
  }
  return td;
}

bool IsValidDecomposition(const ConjunctiveQuery& query,
                          const TreeDecomposition& td) {
  // 1. Every atom assigned exactly once, to a bag covering its variables.
  std::vector<int> assigned(query.body().size(), 0);
  for (const auto& bag : td.bags) {
    for (std::size_t a : bag.atom_indices) {
      if (a >= query.body().size()) return false;
      ++assigned[a];
      for (VarId v : AtomVars(query.body()[a])) {
        if (bag.vars.count(v) == 0) return false;
      }
    }
  }
  for (int count : assigned) {
    if (count != 1) return false;
  }

  // 2. Every variable's bags form a connected subtree: walking up from
  // every bag containing v, the occurrences must form one chain-closed
  // region. Equivalent check: for each v, the bags containing v minus one
  // root-most bag each have a parent containing v.
  for (VarId v = 0; v < query.NumVars(); ++v) {
    std::size_t rootmost = 0;
    std::size_t containing = 0;
    for (std::size_t i = 0; i < td.bags.size(); ++i) {
      if (td.bags[i].vars.count(v) == 0) continue;
      ++containing;
      const std::ptrdiff_t p = td.parent[i];
      if (p == TreeDecomposition::kRoot ||
          td.bags[static_cast<std::size_t>(p)].vars.count(v) == 0) {
        ++rootmost;
      }
    }
    if (containing > 0 && rootmost != 1) return false;
  }
  return true;
}

}  // namespace lamp
