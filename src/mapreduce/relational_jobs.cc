#include "mapreduce/relational_jobs.h"

#include <memory>
#include <set>

#include "common/check.h"
#include "common/hash.h"
#include "cq/eval.h"
#include "distribution/policies.h"
#include "mpc/simulator.h"

namespace lamp {

namespace {

/// Shared reduce stage: evaluate the query over the group's facts.
MapReduceJob::ReduceFn EvaluateReducer(const ConjunctiveQuery& query) {
  // The query is captured by value via a shared_ptr so the job remains
  // valid independently of the caller's lifetime.
  auto owned = std::make_shared<ConjunctiveQuery>(query);
  return [owned](std::uint64_t, const std::vector<Fact>& group) {
    Instance local;
    for (const Fact& f : group) local.Insert(f);
    std::vector<KeyValue> out;
    for (const Fact& f : Evaluate(*owned, local).AllFacts()) {
      out.push_back({0, f});
    }
    return out;
  };
}

}  // namespace

MapReduceJob RepartitionJoinJob(const ConjunctiveQuery& query,
                                std::size_t num_reducers,
                                std::uint64_t seed) {
  LAMP_CHECK_MSG(query.body().size() == 2 && !query.HasSelfJoin(),
                 "repartition job needs a two-atom join without self-joins");
  LAMP_CHECK(num_reducers > 0);

  // Join key positions per atom: first occurrence of each shared variable.
  auto owned = std::make_shared<ConjunctiveQuery>(query);
  MapReduceJob job;
  job.map = [owned, num_reducers, seed](const Fact& f) {
    std::vector<KeyValue> out;
    const Atom* atom = nullptr;
    const Atom* other = nullptr;
    if (f.relation == owned->body()[0].relation) {
      atom = &owned->body()[0];
      other = &owned->body()[1];
    } else if (f.relation == owned->body()[1].relation) {
      atom = &owned->body()[1];
      other = &owned->body()[0];
    } else {
      return out;
    }
    // Hash the values at the positions of variables shared with the other
    // atom (in VarId order for determinism).
    std::set<VarId> other_vars;
    for (const Term& t : other->terms) {
      if (t.IsVar()) other_vars.insert(t.var);
    }
    std::uint64_t h = HashMix(seed);
    std::set<VarId> used;
    for (VarId v = 0; v < owned->NumVars(); ++v) {
      if (other_vars.count(v) == 0) continue;
      for (std::size_t i = 0; i < atom->terms.size(); ++i) {
        const Term& t = atom->terms[i];
        if (t.IsVar() && t.var == v && used.insert(v).second) {
          h = HashCombine(h, static_cast<std::uint64_t>(f.args[i].v));
        }
      }
    }
    if (used.empty()) return out;  // Fact has no join variable: drop.
    out.push_back({h % num_reducers, f});
    return out;
  };
  job.reduce = EvaluateReducer(query);
  return job;
}

MapReduceJob SharesJob(const ConjunctiveQuery& query, const Shares& shares,
                       std::uint64_t seed) {
  auto policy = std::make_shared<HypercubePolicy>(query, shares,
                                                  MakeUniverse(1), seed);
  MapReduceJob job;
  job.map = [policy](const Fact& f) {
    std::vector<KeyValue> out;
    for (NodeId node : policy->ResponsibleNodes(f)) {
      out.push_back({node, f});
    }
    return out;
  };
  job.reduce = EvaluateReducer(query);
  return job;
}

MpcRunResult RunJobOnMpc(const MapReduceJob& job, const Instance& input,
                         std::size_t num_servers) {
  MpcSimulator sim(num_servers);
  sim.LoadInput(input);
  sim.RunRound(
      [&job, num_servers](NodeId, transport::RowRef row,
                          std::vector<NodeId>& targets) {
        // Map functions take facts: the one copy per routed row is theirs.
        const Fact f(row.relation,
                     std::vector<Value>(row.row, row.row + row.arity));
        for (const KeyValue& kv : job.map(f)) {
          targets.push_back(static_cast<NodeId>(kv.key % num_servers));
        }
      },
      [&job, num_servers](NodeId me,
                          const Instance& received) -> MpcSimulator::ComputeResult {
        // Re-derive each fact's keys locally and reduce the groups this
        // server owns (key mod p == me).
        std::map<std::uint64_t, std::vector<Fact>> groups;
        for (const Fact& f : received.AllFacts()) {
          for (KeyValue& kv : job.map(f)) {
            if (kv.key % num_servers == me) {
              groups[kv.key].push_back(std::move(kv.value));
            }
          }
        }
        Instance output;
        for (const auto& [key, values] : groups) {
          for (const KeyValue& kv : job.reduce(key, values)) {
            output.Insert(kv.value);
          }
        }
        return {Instance(), std::move(output)};
      });
  return {sim.output(), sim.stats()};
}

}  // namespace lamp
