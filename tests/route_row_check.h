#ifndef LAMP_TESTS_ROUTE_ROW_CHECK_H_
#define LAMP_TESTS_ROUTE_ROW_CHECK_H_

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "distribution/policy.h"
#include "relational/schema.h"

namespace lamp {

// RouteRow against the IsResponsible scan over every node: the same set,
// no target twice, the caller's earlier targets left in place, and
// ResponsibleNodes returning exactly what RouteRow appends.
inline void ExpectRouteRowMatchesScan(const DistributionPolicy& policy,
                                      const Schema& schema, const Fact& f) {
  SCOPED_TRACE(FactToString(schema, f));
  std::vector<NodeId> routed = {7777};  // Must survive the append.
  policy.RouteRow(f.relation, f.args.data(), f.args.size(), routed);
  ASSERT_FALSE(routed.empty());
  EXPECT_EQ(routed.front(), 7777u);
  const std::vector<NodeId> appended(routed.begin() + 1, routed.end());
  const std::set<NodeId> appended_set(appended.begin(), appended.end());
  EXPECT_EQ(appended_set.size(), appended.size()) << "a target twice";
  std::set<NodeId> scan;
  for (NodeId n = 0; n < policy.NumNodes(); ++n) {
    if (policy.IsResponsible(n, f)) scan.insert(n);
  }
  EXPECT_EQ(appended_set, scan);
  EXPECT_EQ(policy.ResponsibleNodes(f), appended);
}

}  // namespace lamp

#endif  // LAMP_TESTS_ROUTE_ROW_CHECK_H_
