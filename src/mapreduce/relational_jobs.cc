#include "mapreduce/relational_jobs.h"

#include <memory>

#include "common/check.h"
#include "cq/eval.h"
#include "distribution/policies.h"
#include "mpc/simulator.h"

namespace lamp {

namespace {

/// A distribution policy as a map: each node it routes the row to is a
/// key.
MapReduceJob::MapFn KeysFromPolicy(
    std::shared_ptr<const DistributionPolicy> policy) {
  return [policy = std::move(policy)](transport::RowRef row,
                                      std::vector<std::uint64_t>& keys) {
    thread_local std::vector<NodeId> targets;
    targets.clear();
    policy->RouteRow(row.relation, row.row, row.arity, targets);
    keys.insert(keys.end(), targets.begin(), targets.end());
  };
}

/// Shared reduce stage: evaluate the query over the group's rows.
MapReduceJob::ReduceFn EvaluateReducer(const ConjunctiveQuery& query) {
  // The query is captured by value via a shared_ptr so the job remains
  // valid independently of the caller's lifetime.
  auto owned = std::make_shared<ConjunctiveQuery>(query);
  return [owned](std::uint64_t, std::span<const transport::RowRef> group,
                 Instance& out) {
    Instance local;
    for (const transport::RowRef& row : group) {
      local.InsertRow(row.relation, row.row, row.arity);
    }
    out.InsertAll(Evaluate(*owned, local));
  };
}

}  // namespace

MapReduceJob RepartitionJoinJob(const ConjunctiveQuery& query,
                                std::size_t num_reducers,
                                std::uint64_t seed) {
  LAMP_CHECK(num_reducers > 0);
  return {KeysFromPolicy(std::make_shared<HashPolicy>(
              RepartitionPolicy(query, num_reducers, seed))),
          EvaluateReducer(query)};
}

MapReduceJob SharesJob(const ConjunctiveQuery& query, const Shares& shares,
                       std::uint64_t seed) {
  return {KeysFromPolicy(std::make_shared<HypercubePolicy>(
              query, shares, MakeUniverse(1), seed)),
          EvaluateReducer(query)};
}

MpcRunResult RunJobOnMpc(const MapReduceJob& job, const Instance& input,
                         std::size_t num_servers) {
  MpcSimulator sim(num_servers);
  sim.LoadInput(input);
  sim.RunRound(
      [&job, num_servers](NodeId, transport::RowRef row,
                          std::vector<NodeId>& targets) {
        thread_local std::vector<std::uint64_t> keys;
        keys.clear();
        job.map(row, keys);
        for (const std::uint64_t key : keys) {
          targets.push_back(static_cast<NodeId>(key % num_servers));
        }
      },
      [&job, num_servers](NodeId me, Instance& received) {
        // Re-derive each row's keys locally and reduce the groups this
        // server owns (key mod p == me).
        MpcSimulator::ComputeResult result;
        result.output.AppendAll(RunJobShard(job, received, me, num_servers));
        return result;
      });
  return {sim.output(), sim.stats()};
}

}  // namespace lamp
