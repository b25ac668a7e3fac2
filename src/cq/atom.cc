#include "cq/atom.h"

#include <map>
#include <numeric>

namespace lamp {

std::vector<std::size_t> AtomComponents(const std::vector<Atom>& atoms) {
  std::vector<std::size_t> parent(atoms.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t a) {
    while (parent[a] != a) {
      parent[a] = parent[parent[a]];
      a = parent[a];
    }
    return a;
  };
  // Union each atom with the first atom each of its variables was seen in.
  std::map<VarId, std::size_t> first_atom;
  for (std::size_t a = 0; a < atoms.size(); ++a) {
    for (const Term& term : atoms[a].terms) {
      if (!term.IsVar()) continue;
      const auto [it, inserted] = first_atom.emplace(term.var, a);
      if (!inserted) parent[find(a)] = find(it->second);
    }
  }
  std::vector<std::size_t> component(atoms.size());
  std::map<std::size_t, std::size_t> dense;  // Root -> component id.
  for (std::size_t a = 0; a < atoms.size(); ++a) {
    component[a] = dense.emplace(find(a), dense.size()).first->second;
  }
  return component;
}

}  // namespace lamp
