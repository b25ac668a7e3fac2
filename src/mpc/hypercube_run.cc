#include "mpc/hypercube_run.h"

#include <cmath>

#include "common/check.h"
#include "distribution/policies.h"
#include "lp/edge_packing.h"

namespace lamp {

MpcRunResult RunHyperCube(const ConjunctiveQuery& query, const Instance& input,
                          const Shares& shares, std::uint64_t seed) {
  // The deciders' universe is irrelevant for routing; pass something small.
  return RunOneRound(query, input,
                     HypercubePolicy(query, shares, MakeUniverse(1), seed));
}

MpcRunResult RunHyperCubeUniform(const ConjunctiveQuery& query,
                                 const Instance& input,
                                 std::size_t num_servers, std::uint64_t seed) {
  return RunHyperCube(query, input, UniformShares(query, num_servers), seed);
}

Shares LpRoundedShares(const ConjunctiveQuery& query,
                       std::size_t num_servers) {
  const ShareExponents exponents = OptimalShareExponents(query);
  Shares shares(query.NumVars(), 1);
  for (std::size_t v = 0; v < shares.size(); ++v) {
    const double alpha = std::pow(static_cast<double>(num_servers),
                                  exponents.exponent[v]);
    shares[v] = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(alpha)));
  }
  return shares;
}

MpcRunResult RunHyperCubeLpShares(const ConjunctiveQuery& query,
                                  const Instance& input,
                                  std::size_t num_servers,
                                  std::uint64_t seed) {
  return RunHyperCube(query, input, LpRoundedShares(query, num_servers), seed);
}

}  // namespace lamp
