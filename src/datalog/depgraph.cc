#include "datalog/depgraph.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace lamp {

std::string DescribeNegationCycle(const Schema& schema,
                                  const NegationCycle& cycle) {
  std::string out = "negation cycle ";
  for (std::size_t i = 0; i < cycle.relations.size(); ++i) {
    out += schema.NameOf(cycle.relations[i]);
    out += i == 0 ? " -!-> " : " -> ";
  }
  if (!cycle.relations.empty()) out += schema.NameOf(cycle.relations[0]);
  out += " (negated in rule " + std::to_string(cycle.rule_index) + ")";
  return out;
}

DependencyGraph::DependencyGraph(const DatalogProgram& program)
    : idb_(program.IdbRelations()) {
  const std::vector<ConjunctiveQuery>& rules = program.rules();
  for (std::size_t k = 0; k < rules.size(); ++k) {
    const ConjunctiveQuery& rule = rules[k];
    const RelationId head = rule.head().relation;
    rule_heads_.push_back(head);
    used_.insert(head);
    for (std::size_t i = 0; i < rule.body().size(); ++i) {
      const RelationId body = rule.body()[i].relation;
      used_.insert(body);
      edges_.push_back({head, body, false, k, i});
    }
    for (std::size_t i = 0; i < rule.negated().size(); ++i) {
      const RelationId body = rule.negated()[i].relation;
      used_.insert(body);
      edges_.push_back({head, body, true, k, i});
    }
  }

  // Dense indexing over the used relations.
  std::vector<RelationId> nodes(used_.begin(), used_.end());
  std::map<RelationId, std::size_t> dense;
  for (std::size_t i = 0; i < nodes.size(); ++i) dense[nodes[i]] = i;
  std::vector<std::vector<std::size_t>> adj(nodes.size());
  for (const DepEdge& e : edges_) {
    adj[dense[e.head]].push_back(dense[e.body]);
  }

  // Iterative Tarjan. Components are emitted callees-first, which is the
  // reverse topological order the stratifier wants.
  const std::size_t n = nodes.size();
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(n, kUnvisited);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> scc_stack;
  std::size_t next_index = 0;

  struct Frame {
    std::size_t node;
    std::size_t next_child;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    std::vector<Frame> call_stack{{root, 0}};
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::size_t v = frame.node;
      if (frame.next_child < adj[v].size()) {
        const std::size_t w = adj[v][frame.next_child++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        std::vector<RelationId> component;
        while (true) {
          const std::size_t w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[w] = false;
          component.push_back(nodes[w]);
          if (w == v) break;
        }
        std::sort(component.begin(), component.end());
        const std::size_t id = components_.size();
        for (RelationId rel : component) component_of_[rel] = id;
        components_.push_back(std::move(component));
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        Frame& parent = call_stack.back();
        lowlink[parent.node] = std::min(lowlink[parent.node], lowlink[v]);
      }
    }
  }
}

std::size_t DependencyGraph::ComponentOf(RelationId rel) const {
  const auto it = component_of_.find(rel);
  LAMP_CHECK_MSG(it != component_of_.end(),
                 "relation does not occur in the program");
  return it->second;
}

bool DependencyGraph::IsStratifiable() const {
  for (const DepEdge& e : edges_) {
    if (e.negative && idb_.count(e.body) > 0 &&
        ComponentOf(e.head) == ComponentOf(e.body)) {
      return false;
    }
  }
  return true;
}

std::optional<StratumAssignment> DependencyGraph::Stratify() const {
  // Stratum per component. Negation on an EDB relation does not force a
  // bump: extensional relations are fully known from stratum 0, before
  // the evaluator runs any rule.
  if (!IsStratifiable()) return std::nullopt;

  // components_ is in reverse topological order: every edge leaving a
  // component points to an earlier one. So one pass over the components
  // in order reads each body stratum after it is final.
  std::vector<std::vector<const DepEdge*>> edges_from(components_.size());
  for (const DepEdge& e : edges_) {
    edges_from[ComponentOf(e.head)].push_back(&e);
  }
  std::vector<std::size_t> component_stratum(components_.size(), 0);
  for (std::size_t comp = 0; comp < components_.size(); ++comp) {
    for (const DepEdge* e : edges_from[comp]) {
      if (idb_.count(e->body) == 0) continue;  // EDB sits at 0 for free.
      const std::size_t body_comp = ComponentOf(e->body);
      if (body_comp == comp) continue;
      component_stratum[comp] =
          std::max(component_stratum[comp],
                   component_stratum[body_comp] + (e->negative ? 1 : 0));
    }
  }

  StratumAssignment out;
  for (RelationId rel : used_) {
    out.relation_stratum[rel] =
        idb_.count(rel) > 0 ? component_stratum[ComponentOf(rel)] : 0;
  }

  // Group rules by their head's stratum, densely renumbered bottom-up.
  std::set<std::size_t> raw_used;
  for (const RelationId head : rule_heads_) {
    raw_used.insert(out.relation_stratum.at(head));
  }
  std::map<std::size_t, std::size_t> dense;
  std::size_t next = 0;
  for (std::size_t s : raw_used) dense[s] = next++;
  out.rule_strata.assign(next == 0 ? 1 : next, {});
  for (std::size_t k = 0; k < rule_heads_.size(); ++k) {
    out.rule_strata[dense[out.relation_stratum.at(rule_heads_[k])]].push_back(
        k);
  }
  out.num_strata = out.rule_strata.size();
  return out;
}

std::optional<NegationCycle> DependencyGraph::FindNegationCycle() const {
  for (const DepEdge& e : edges_) {
    if (!e.negative || idb_.count(e.body) == 0) continue;
    const std::size_t comp = ComponentOf(e.head);
    if (ComponentOf(e.body) != comp) continue;

    NegationCycle cycle;
    cycle.rule_index = e.rule_index;
    cycle.atom_index = e.atom_index;
    cycle.relations.push_back(e.head);
    if (e.body != e.head) {
      // BFS from e.body back to e.head inside the component.
      std::map<RelationId, RelationId> parent;
      std::deque<RelationId> queue{e.body};
      parent[e.body] = e.body;
      while (!queue.empty() && parent.count(e.head) == 0) {
        const RelationId cur = queue.front();
        queue.pop_front();
        for (const DepEdge& step : edges_) {
          if (step.head != cur) continue;
          if (component_of_.at(step.body) != comp) continue;
          if (parent.count(step.body) > 0) continue;
          parent[step.body] = cur;
          queue.push_back(step.body);
        }
      }
      LAMP_CHECK(parent.count(e.head) > 0);  // Same SCC => path exists.
      std::vector<RelationId> path;
      for (RelationId cur = e.head; cur != e.body; cur = parent.at(cur)) {
        path.push_back(cur);
      }
      path.push_back(e.body);
      // path is head..body following parents; the walk is body -> head.
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        if (*it != e.head) cycle.relations.push_back(*it);
      }
    }
    return cycle;
  }
  return std::nullopt;
}

std::vector<std::size_t> DependencyGraph::UnreachableRules(
    const std::vector<RelationId>& outputs) const {
  std::set<RelationId> reached;
  std::deque<RelationId> queue;
  for (RelationId rel : outputs) {
    if (reached.insert(rel).second) queue.push_back(rel);
  }
  while (!queue.empty()) {
    const RelationId cur = queue.front();
    queue.pop_front();
    for (const DepEdge& e : edges_) {
      if (e.head != cur) continue;
      if (reached.insert(e.body).second) queue.push_back(e.body);
    }
  }
  std::vector<std::size_t> unreachable;
  for (std::size_t k = 0; k < rule_heads_.size(); ++k) {
    if (reached.count(rule_heads_[k]) == 0) unreachable.push_back(k);
  }
  return unreachable;
}

}  // namespace lamp
