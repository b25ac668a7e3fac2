#ifndef LAMP_MAPREDUCE_RELATIONAL_JOBS_H_
#define LAMP_MAPREDUCE_RELATIONAL_JOBS_H_

#include "cq/cq.h"
#include "distribution/hypercube.h"
#include "mapreduce/mapreduce.h"
#include "mpc/join_strategies.h"

/// \file
/// The canonical relational MapReduce jobs the paper refers to, plus the
/// MapReduce -> MPC translation it sketches ("the map phase and reducer
/// phase readily translate to the communication and computation phase").

namespace lamp {

/// The repartition join (Example 3.1(1a)) as one MapReduce job: mu is
/// RepartitionPolicy's HashPolicy::RouteRow over \p num_reducers nodes
/// (the row's shared join variables hashed to one key); rho evaluates
/// \p query on its group.
/// \p query must be a two-atom join without self-joins whose atoms share
/// a variable.
MapReduceJob RepartitionJoinJob(const ConjunctiveQuery& query,
                                std::size_t num_reducers,
                                std::uint64_t seed = 0);

/// The Shares/HyperCube algorithm (Section 3.1, Afrati-Ullman) as one
/// MapReduce job: mu is HypercubePolicy::RouteRow, a key per grid cell
/// responsible for the row; rho evaluates the query. The returned job
/// owns a HypercubePolicy built from \p shares.
MapReduceJob SharesJob(const ConjunctiveQuery& query, const Shares& shares,
                       std::uint64_t seed = 0);

/// Executes \p job as a one-round MPC algorithm on \p num_servers servers:
/// the job's map is the router, a row going to server key mod p for each
/// of its keys, and server s reduces the groups of its keys
/// (RunJobShard(job, received, s, p)) — the paper's MapReduce-to-MPC
/// translation.
MpcRunResult RunJobOnMpc(const MapReduceJob& job, const Instance& input,
                         std::size_t num_servers);

}  // namespace lamp

#endif  // LAMP_MAPREDUCE_RELATIONAL_JOBS_H_
