#include "distribution/hypercube.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/check.h"
#include "common/hash.h"

namespace lamp {

HypercubePolicy::HypercubePolicy(const ConjunctiveQuery& query, Shares shares,
                                 std::vector<Value> universe,
                                 std::uint64_t seed)
    : DistributionPolicy(std::accumulate(shares.begin(), shares.end(),
                                         std::size_t{1},
                                         std::multiplies<std::size_t>()),
                         std::move(universe)),
      shares_(std::move(shares)) {
  LAMP_CHECK(shares_.size() == query.NumVars());
  LAMP_CHECK(!shares_.empty());
  const std::size_t k = shares_.size();
  stride_.resize(k);
  var_salt_.resize(k);
  std::size_t stride = 1;
  for (std::size_t v = 0; v < k; ++v) {
    LAMP_CHECK(shares_[v] >= 1);
    stride_[v] = stride;
    stride *= shares_[v];
    var_salt_[v] = HashMix(seed + v);
  }
  for (const Atom& atom : query.body()) {
    AtomRoute route;
    route.relation = atom.relation;
    route.arity = atom.terms.size();
    std::vector<bool> in_atom(k, false);
    for (std::size_t pos = 0; pos < atom.terms.size(); ++pos) {
      const Term& t = atom.terms[pos];
      if (t.IsConst()) {
        route.constants.emplace_back(pos, t.constant);
        continue;
      }
      std::size_t first = pos;
      for (const AtomRoute::VarTerm& earlier : route.vars) {
        if (earlier.var == t.var) {
          first = earlier.pos;
          break;
        }
      }
      route.vars.push_back({pos, t.var, first});
      in_atom[t.var] = true;
    }
    // Odometer over the free variables, the lowest one fastest.
    route.offsets.push_back(0);
    for (std::size_t v = 0; v < k; ++v) {
      if (in_atom[v]) continue;
      const std::size_t below = route.offsets.size();
      for (std::size_t c = 1; c < shares_[v]; ++c) {
        for (std::size_t i = 0; i < below; ++i) {
          route.offsets.push_back(route.offsets[i] + c * stride_[v]);
        }
      }
    }
    atoms_.push_back(std::move(route));
  }
}

std::size_t HypercubePolicy::HashVar(VarId v, Value value) const {
  return static_cast<std::size_t>(
      HashMix(static_cast<std::uint64_t>(value.v) ^ var_salt_[v]) %
      shares_[v]);
}

std::vector<std::size_t> HypercubePolicy::Coordinates(NodeId node) const {
  std::vector<std::size_t> coords(shares_.size());
  std::size_t rest = node;
  for (std::size_t v = 0; v < shares_.size(); ++v) {
    coords[v] = rest % shares_[v];
    rest /= shares_[v];
  }
  return coords;
}

NodeId HypercubePolicy::NodeAt(const std::vector<std::size_t>& coords) const {
  LAMP_CHECK(coords.size() == shares_.size());
  std::size_t node = 0;
  for (std::size_t v = 0; v < shares_.size(); ++v) {
    LAMP_CHECK(coords[v] < shares_[v]);
    node += coords[v] * stride_[v];
  }
  return static_cast<NodeId>(node);
}

void HypercubePolicy::RouteRow(RelationId relation, const Value* row,
                               std::size_t arity,
                               std::vector<NodeId>& targets) const {
  const std::size_t start = targets.size();
  bool matched = false;  // Some earlier atom already routed this row.
  for (const AtomRoute& atom : atoms_) {
    if (atom.relation != relation || atom.arity != arity ||
        !std::all_of(
            atom.constants.begin(), atom.constants.end(),
            [row](const auto& c) { return row[c.first] == c.second; })) {
      continue;
    }
    std::size_t base = 0;
    bool consistent = true;
    for (const AtomRoute::VarTerm& t : atom.vars) {
      const std::size_t h = HashVar(t.var, row[t.pos]);
      if (t.first_pos == t.pos) {
        base += h * stride_[t.var];
      } else if (h != HashVar(t.var, row[t.first_pos])) {
        consistent = false;  // A repeated variable's hashes diverge.
        break;
      }
    }
    if (!consistent) continue;
    for (const std::size_t offset : atom.offsets) {
      const auto node = static_cast<NodeId>(base + offset);
      if (matched && std::find(targets.begin() + start, targets.end(),
                               node) != targets.end()) {
        continue;
      }
      targets.push_back(node);
    }
    matched = true;
  }
}

std::size_t HypercubePolicy::ReplicationOf(std::size_t atom_index) const {
  LAMP_CHECK(atom_index < atoms_.size());
  return atoms_[atom_index].offsets.size();
}

Shares UniformShares(const ConjunctiveQuery& query, std::size_t budget) {
  const std::size_t k = query.NumVars();
  LAMP_CHECK(k > 0);
  auto share = static_cast<std::size_t>(
      std::floor(std::pow(static_cast<double>(budget), 1.0 / k) + 1e-9));
  if (share < 1) share = 1;
  return Shares(k, share);
}

double ExpectedHyperCubeLoad(const ConjunctiveQuery& query,
                             const Shares& shares,
                             const std::vector<double>& atom_sizes) {
  LAMP_CHECK(shares.size() == query.NumVars());
  LAMP_CHECK(atom_sizes.size() == query.body().size());
  double load = 0.0;
  for (std::size_t a = 0; a < query.body().size(); ++a) {
    double denom = 1.0;
    // A repeated variable constrains only one dimension; count each
    // variable once per atom (as routing does).
    std::vector<bool> seen(shares.size(), false);
    for (const Term& t : query.body()[a].terms) {
      if (t.IsVar() && !seen[t.var]) {
        seen[t.var] = true;
        denom *= static_cast<double>(shares[t.var]);
      }
    }
    load += atom_sizes[a] / denom;
  }
  return load;
}

Shares OptimizeIntegerShares(const ConjunctiveQuery& query,
                             std::size_t budget,
                             const std::vector<double>& atom_sizes) {
  const std::size_t k = query.NumVars();
  LAMP_CHECK(k > 0);
  LAMP_CHECK(atom_sizes.size() == query.body().size());

  // Precompute which variables occur in each atom.
  std::vector<std::vector<bool>> occurs(query.body().size(),
                                        std::vector<bool>(k, false));
  for (std::size_t a = 0; a < query.body().size(); ++a) {
    for (const Term& t : query.body()[a].terms) {
      if (t.IsVar()) occurs[a][t.var] = true;
    }
  }

  Shares best(k, 1);
  double best_load = -1.0;
  Shares current(k, 1);

  // Depth-first over share vectors with product <= budget.
  std::function<void(std::size_t, std::size_t)> descend =
      [&](std::size_t v, std::size_t remaining) {
        if (v == k) {
          double load = 0.0;
          for (std::size_t a = 0; a < occurs.size(); ++a) {
            double denom = 1.0;
            for (std::size_t u = 0; u < k; ++u) {
              if (occurs[a][u]) denom *= static_cast<double>(current[u]);
            }
            load += atom_sizes[a] / denom;
          }
          if (best_load < 0.0 || load < best_load) {
            best_load = load;
            best = current;
          }
          return;
        }
        for (std::size_t share = 1; share <= remaining; ++share) {
          current[v] = share;
          descend(v + 1, remaining / share);
        }
        current[v] = 1;
      };
  descend(0, budget);
  return best;
}

Shares BestShares(const ConjunctiveQuery& query, std::size_t budget,
                  const std::vector<double>& atom_sizes,
                  const std::vector<Shares>& candidates) {
  std::vector<Shares> pool = candidates;
  pool.push_back(UniformShares(query, budget));
  Shares best;
  double best_load = -1.0;
  for (const Shares& shares : pool) {
    if (shares.size() != query.NumVars()) continue;
    std::size_t product = 1;
    bool valid = true;
    for (const std::size_t s : shares) {
      if (s == 0) {
        valid = false;
        break;
      }
      product *= s;
    }
    if (!valid || product > budget) continue;
    const double load = ExpectedHyperCubeLoad(query, shares, atom_sizes);
    if (best_load < 0.0 || load < best_load) {
      best_load = load;
      best = shares;
    }
  }
  // UniformShares is always well-formed and within budget, so best is set.
  return best;
}

Shares OptimizeIntegerSharesTotalComm(const ConjunctiveQuery& query,
                                      std::size_t num_servers,
                                      const std::vector<double>& atom_sizes) {
  const std::size_t k = query.NumVars();
  LAMP_CHECK(k > 0);
  LAMP_CHECK(num_servers > 0);
  LAMP_CHECK(atom_sizes.size() == query.body().size());

  std::vector<std::vector<bool>> occurs(query.body().size(),
                                        std::vector<bool>(k, false));
  for (std::size_t a = 0; a < query.body().size(); ++a) {
    for (const Term& t : query.body()[a].terms) {
      if (t.IsVar()) occurs[a][t.var] = true;
    }
  }

  Shares best(k, 1);
  double best_comm = -1.0;
  Shares current(k, 1);

  // Depth-first over exact factorizations: the product of the remaining
  // slots must divide out `remaining` completely.
  std::function<void(std::size_t, std::size_t)> descend =
      [&](std::size_t v, std::size_t remaining) {
        if (v == k) {
          if (remaining != 1) return;  // Not an exact factorization.
          double comm = 0.0;
          for (std::size_t a = 0; a < occurs.size(); ++a) {
            double replication = 1.0;
            for (std::size_t u = 0; u < k; ++u) {
              if (!occurs[a][u]) replication *= static_cast<double>(current[u]);
            }
            comm += atom_sizes[a] * replication;
          }
          if (best_comm < 0.0 || comm < best_comm) {
            best_comm = comm;
            best = current;
          }
          return;
        }
        for (std::size_t share = 1; share <= remaining; ++share) {
          if (remaining % share != 0) continue;
          current[v] = share;
          descend(v + 1, remaining / share);
        }
        current[v] = 1;
      };
  descend(0, num_servers);
  LAMP_CHECK_MSG(best_comm >= 0.0, "no exact factorization found");
  return best;
}

}  // namespace lamp
