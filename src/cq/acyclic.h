#ifndef LAMP_CQ_ACYCLIC_H_
#define LAMP_CQ_ACYCLIC_H_

#include <cstddef>
#include <vector>

#include "cq/cq.h"

/// \file
/// Hypergraph acyclicity (GYO reduction) and join trees.
///
/// Yannakakis' algorithm (Section 3.2: the semi-join phase of GYM) operates
/// over a join tree of an acyclic query; this module decides acyclicity and
/// produces such a tree.

namespace lamp {

/// A join tree over the body atoms of a query. parent[i] is the index of
/// the parent atom of atom i, or kRoot for the root. removal_order lists
/// atom indices in GYO ear-removal order (leaves first); processing it
/// forward gives the upward semi-join sweep, backward the downward sweep.
struct JoinTree {
  static constexpr std::ptrdiff_t kRoot = -1;

  bool acyclic = false;
  std::vector<std::ptrdiff_t> parent;
  std::vector<std::size_t> removal_order;
};

/// Runs the GYO reduction on the positive body of \p query. The result's
/// acyclic flag is false for cyclic queries (triangle, longer cycles), in
/// which case parent/removal_order are meaningless.
JoinTree BuildJoinTree(const ConjunctiveQuery& query);

}  // namespace lamp

#endif  // LAMP_CQ_ACYCLIC_H_
