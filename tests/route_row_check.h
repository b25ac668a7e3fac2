#ifndef LAMP_TESTS_ROUTE_ROW_CHECK_H_
#define LAMP_TESTS_ROUTE_ROW_CHECK_H_

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "distribution/policy.h"
#include "relational/schema.h"

namespace lamp {

// RouteRow is well formed on \p f: the caller's earlier targets are left in
// place, no target is appended twice, every target is a node of the
// network, ResponsibleNodes returns exactly what was appended, and
// IsResponsible holds for exactly the appended nodes. Returns the appended
// nodes, for comparison against an independent oracle.
inline std::vector<NodeId> ExpectRouteRowWellFormed(
    const DistributionPolicy& policy, const Schema& schema, const Fact& f) {
  SCOPED_TRACE(FactToString(schema, f));
  std::vector<NodeId> routed = {7777};  // Must survive the append.
  policy.RouteRow(f.relation, f.args.data(), f.args.size(), routed);
  EXPECT_FALSE(routed.empty());
  if (routed.empty()) return {};
  EXPECT_EQ(routed.front(), 7777u);
  const std::vector<NodeId> appended(routed.begin() + 1, routed.end());
  const std::set<NodeId> appended_set(appended.begin(), appended.end());
  EXPECT_EQ(appended_set.size(), appended.size()) << "a target twice";
  for (const NodeId node : appended) EXPECT_LT(node, policy.NumNodes());
  EXPECT_EQ(policy.ResponsibleNodes(f), appended);
  for (NodeId n = 0; n < policy.NumNodes(); ++n) {
    EXPECT_EQ(policy.IsResponsible(n, f), appended_set.count(n) > 0)
        << "node " << n;
  }
  return appended;
}

}  // namespace lamp

#endif  // LAMP_TESTS_ROUTE_ROW_CHECK_H_
