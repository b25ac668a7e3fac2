#include "cq/acyclic.h"

#include <algorithm>
#include <set>

namespace lamp {

JoinTree BuildJoinTree(const ConjunctiveQuery& query) {
  const std::size_t n = query.body().size();
  JoinTree tree;
  tree.parent.assign(n, JoinTree::kRoot);

  std::vector<std::set<VarId>> vars(n);
  for (std::size_t i = 0; i < n; ++i) vars[i] = AtomVars(query.body()[i]);

  std::vector<bool> removed(n, false);
  std::size_t remaining = n;

  while (remaining > 1) {
    bool progressed = false;
    for (std::size_t e = 0; e < n && !progressed; ++e) {
      if (removed[e]) continue;
      // Vars of e shared with any other remaining atom.
      std::set<VarId> shared;
      for (VarId v : vars[e]) {
        for (std::size_t other = 0; other < n; ++other) {
          if (other == e || removed[other]) continue;
          if (vars[other].count(v) > 0) {
            shared.insert(v);
            break;
          }
        }
      }
      // e is an ear when its shared vars all sit inside one witness atom.
      for (std::size_t w = 0; w < n; ++w) {
        if (w == e || removed[w]) continue;
        const bool covered =
            std::all_of(shared.begin(), shared.end(),
                        [&vars, w](VarId v) { return vars[w].count(v) > 0; });
        if (covered) {
          removed[e] = true;
          tree.parent[e] = static_cast<std::ptrdiff_t>(w);
          tree.removal_order.push_back(e);
          --remaining;
          progressed = true;
          break;
        }
      }
    }
    if (!progressed) {
      tree.acyclic = false;
      return tree;
    }
  }

  // The last remaining atom is the root.
  for (std::size_t i = 0; i < n; ++i) {
    if (!removed[i]) tree.removal_order.push_back(i);
  }
  tree.acyclic = true;
  return tree;
}

}  // namespace lamp
