#include "mpc/simulator.h"

#include <span>

#include "common/check.h"
#include "cq/eval.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace lamp {

namespace {

/// One routed fact in a worker's outbox, as a columnar row reference. The
/// row pointer aims into the source server's local instance, which is
/// immutable for the whole communication phase — routing copies no facts.
/// `bytes` is the row's encoded size, computed once per source row however
/// many targets it goes to; it fills what would be padding.
struct Routed {
  transport::RowRef row;
  NodeId source;
  std::uint32_t bytes;
};
static_assert(sizeof(Routed) <= 32, "outbox entries stay 32 bytes");

using Outbox = std::vector<std::vector<std::vector<Routed>>>;

/// Calls visit(source, run) for every run of entries one source routed to
/// \p target, in ascending source order: shards are contiguous ascending
/// source ranges, each routed in source order, so visiting the per-target
/// outboxes in shard order replays the serial loop.
template <typename Visit>
void ForEachRun(const Outbox& outbox, std::size_t target, Visit&& visit) {
  for (const std::vector<std::vector<Routed>>& shard : outbox) {
    const std::vector<Routed>& routed = shard[target];
    for (std::size_t i = 0; i < routed.size();) {
      const std::size_t begin = i;
      const NodeId source = routed[i].source;
      while (i < routed.size() && routed[i].source == source) ++i;
      visit(source, std::span<const Routed>(routed.data() + begin, i - begin));
    }
  }
}

/// Rows counted per relation, to size an instance for them once
/// (Instance::Reserve) before they are inserted: inserting them then never
/// grows its storage. The counts include repeats, so they are exact for
/// distinct rows and an upper bound otherwise.
class RowCounts {
 public:
  void Add(const transport::RowRef& row) {
    if (row.relation >= per_relation_.size()) {
      per_relation_.resize(row.relation + 1);
    }
    Rows& rows = per_relation_[row.relation];
    ++rows.count;
    rows.arity = row.arity;
  }

  void ReserveIn(Instance& in) const {
    for (RelationId rel = 0; rel < per_relation_.size(); ++rel) {
      const Rows& rows = per_relation_[rel];
      if (rows.count != 0) in.Reserve(rel, rows.count, rows.arity);
    }
  }

 private:
  struct Rows {
    std::size_t count = 0;
    std::uint32_t arity = 0;
  };
  std::vector<Rows> per_relation_;
};

/// Sizes \p in for the rows \p outbox routes to \p target.
void ReserveForRuns(const Outbox& outbox, std::size_t target, Instance& in) {
  RowCounts counts;
  for (const std::vector<std::vector<Routed>>& shard : outbox) {
    for (const Routed& r : shard[target]) counts.Add(r.row);
  }
  counts.ReserveIn(in);
}

}  // namespace

MpcSimulator::MpcSimulator(std::size_t num_servers) {
  LAMP_CHECK(num_servers > 0);
  locals_.resize(num_servers);
}

MpcSimulator::MpcSimulator(transport::Transport& transport)
    : MpcSimulator(transport.num_endpoints()) {
  explicit_ = &transport;
}

void MpcSimulator::LoadInput(const Instance& global) {
  const std::size_t p = locals_.size();
  locals_.assign(p, Instance());
  output_ = Instance();
  stats_ = RunStats();
  for (std::size_t server = 0; server < p; ++server) {
    if (IsLocal(server)) locals_[server] = RoundRobinPart(global, server, p);
  }
}

void MpcSimulator::RunRound(const Router& route, const Computer& compute) {
  const std::size_t p = locals_.size();
  const auto round_idx = static_cast<std::uint32_t>(stats_.rounds.size());
  obs::Emit(obs::EventKind::kMpcRoundBegin, round_idx, 0, p);

  par::ThreadPool& pool = par::GlobalPool();

  // Communication phase, step 1: each worker routes a contiguous shard of
  // source servers into its own per-target outbox, in (source, fact,
  // route-target) order — the order the serial loop would visit them.
  std::vector<Instance> received(p);
  RoundStats round;
  round.received.assign(p, 0);
  round.wire_bytes.assign(p, 0);
  {
    obs::TraceSpan span("mpc.route", round_idx);
    Outbox outbox(pool.NumChunks(p));
    pool.ParallelChunks(
        0, p,
        [this, p, &route, &outbox](std::size_t shard, std::size_t lo,
                                   std::size_t hi) {
          std::vector<std::vector<Routed>>& out = outbox[shard];
          out.resize(p);
          std::vector<NodeId> targets;  // Cleared and refilled per row.
          for (std::size_t source = lo; source < hi; ++source) {
            if (!IsLocal(source)) continue;
            const auto src = static_cast<NodeId>(source);
            const Instance& local = locals_[source];
            for (RelationId rel = 0; rel < local.NumRelationIds(); ++rel) {
              const RowsView rows = local.RowsOf(rel);
              const auto arity = static_cast<std::uint32_t>(rows.arity);
              for (std::size_t i = 0; i < rows.num_rows; ++i) {
                const transport::RowRef row{rel, rows.Row(i), arity};
                targets.clear();
                route(src, row, targets);
                if (targets.empty()) continue;
                const auto bytes =
                    static_cast<std::uint32_t>(transport::EncodedRowSize(row));
                for (const NodeId target : targets) {
                  LAMP_CHECK(target < p);
                  out[target].push_back(Routed{row, src, bytes});
                }
              }
            }
          }
        });

    // Step 2, send side (socket backends only): one kFactBatch frame per
    // run that leaves its server, plus an empty one to each remote target
    // from every local source that routed it nothing — a remote receiver
    // cannot tell "nothing for you" from "not sent yet". The whole round
    // goes to the transport in one SendBatch call.
    transport::Transport* wire = WireTransport();
    if (wire != nullptr) {
      std::vector<transport::WireFrame> frames;
      std::vector<transport::RowRef> rows;
      const auto ship = [&frames, &rows, round_idx](
                            NodeId src, NodeId target,
                            std::span<const Routed> run) {
        rows.clear();
        for (const Routed& r : run) rows.push_back(r.row);
        frames.push_back(transport::WireFrame{
            transport::kWireVersion, transport::FrameType::kFactBatch, src,
            target, transport::EncodeFactBatchPayload(round_idx, rows)});
      };
      for (NodeId target = 0; target < p; ++target) {
        const bool remote = !wire->IsLocal(target);
        NodeId next = 0;  // Local sources below it have shipped to target.
        const auto ship_empty_until = [&](NodeId end) {
          for (; remote && next < end; ++next) {
            if (IsLocal(next)) ship(next, target, {});
          }
        };
        ForEachRun(outbox, target,
                   [&](NodeId src, std::span<const Routed> run) {
                     ship_empty_until(src);
                     next = src + 1;
                     if (src != target) ship(src, target, run);
                   });
        ship_empty_until(static_cast<NodeId>(p));
      }
      wire->SendBatch(std::move(frames));
    }

    // Step 2, drain (targets fan out): each local target sizes its
    // storage for the rows the outbox routes to it, then inserts its runs
    // in ascending source order, taking a run straight from the outbox
    // in-process or when it is the target's own, else from the decoded
    // frame, and receives from remote (mesh) sources at their place in
    // between: the serial insert sequence on every backend. A fact kept at
    // its server is not communicated: it persists but counts toward
    // neither the load (the data a server *receives* in the round) nor the
    // wire bytes, computed in-process from the routed rows' sizes and
    // measured from the frames otherwise.
    pool.ParallelFor(0, p, [this, &received, &round, &outbox, wire, p,
                            round_idx](std::size_t target) {
      if (!IsLocal(target)) return;
      const auto tgt = static_cast<NodeId>(target);
      Instance& in = received[target];
      ReserveForRuns(outbox, target, in);
      std::size_t& load = round.received[target];
      std::size_t& bytes = round.wire_bytes[target];
      const auto insert = [&in, &load](const transport::RowRef row,
                                       bool counts) {
        load += in.InsertRow(row.relation, row.row, row.arity) && counts;
      };
      const auto recv = [&](NodeId src) {
        const transport::WireFrame frame = wire->Recv(tgt, src);
        LAMP_CHECK(frame.type == transport::FrameType::kFactBatch);
        // The batch is decoded and validated whole before any row of it is
        // inserted.
        const auto decoded = transport::DecodeFactBatchPayload(frame.payload);
        LAMP_CHECK_MSG(decoded.has_value() && decoded->round == round_idx,
                       "mpc: malformed fact batch on the wire");
        if (decoded->facts.empty()) return;  // Not communication.
        bytes += transport::FrameWireSize(frame);
        for (const transport::RowRef row : decoded->facts) insert(row, true);
      };
      NodeId next = 0;  // Remote sources below it are drained.
      const auto recv_remote_until = [&](NodeId end) {
        for (; wire != nullptr && next < end; ++next) {
          if (!wire->IsLocal(next)) recv(next);
        }
      };
      ForEachRun(outbox, target,
                 [&](NodeId src, std::span<const Routed> run) {
                   recv_remote_until(src);
                   next = src + 1;
                   if (src == tgt) {
                     for (const Routed& r : run) insert(r.row, false);
                   } else if (wire != nullptr) {
                     recv(src);
                   } else {
                     std::size_t row_bytes = 0;
                     for (const Routed& r : run) {
                       row_bytes += r.bytes;
                       insert(r.row, true);
                     }
                     bytes += transport::FactBatchFrameSize(
                         src, tgt, round_idx, run.size(), row_bytes);
                   }
                 });
      recv_remote_until(static_cast<NodeId>(p));
    });
  }
  std::size_t round_total = 0;
  if (obs::InstalledTracer() != nullptr) {
    for (NodeId server = 0; server < p; ++server) {
      if (!IsLocal(server)) continue;
      obs::Emit(obs::EventKind::kMpcServerLoad, round_idx,
                static_cast<std::uint32_t>(server), round.received[server]);
    }
    round_total = round.TotalLoad();
  }
  stats_.rounds.push_back(std::move(round));

  // Computation phase: servers are independent; results land in a
  // per-server slot and are folded in ascending server order, matching the
  // serial loop. The output is the union of the servers' rows (Q(I) is the
  // union of the Q(I_k)), sized once for all of them and then inserted
  // server by server, so each row's first occurrence keeps its place.
  {
    obs::TraceSpan span("mpc.compute", round_idx);
    std::vector<ComputeResult> results(p);
    pool.ParallelFor(0, p, [this, &compute, &received,
                            &results](std::size_t server) {
      if (!IsLocal(server)) return;
      results[server] = compute(static_cast<NodeId>(server), received[server]);
    });
    RowCounts counts;
    for (const ComputeResult& result : results) {
      for (const transport::RowRef row : result.output) counts.Add(row);
    }
    counts.ReserveIn(output_);
    for (NodeId server = 0; server < p; ++server) {
      locals_[server] = std::move(results[server].next_state);
      for (const transport::RowRef row : results[server].output) {
        output_.InsertRow(row.relation, row.row, row.arity);
      }
    }
  }
  obs::Emit(obs::EventKind::kMpcRoundEnd, round_idx, 0, round_total);
}

transport::Transport* MpcSimulator::WireTransport() {
  if (explicit_ != nullptr) return explicit_;
  if (transport::ActiveKind() == transport::TransportKind::kInProcess) {
    return nullptr;
  }
  if (transport_ == nullptr ||
      transport_->num_endpoints() != locals_.size()) {
    transport_ = transport::MakeLoopbackTransport(locals_.size());
  }
  return transport_.get();
}

MpcSimulator::Computer MpcSimulator::KeepAll() {
  return [](NodeId, Instance& received) {
    return ComputeResult{std::move(received), {}};
  };
}

MpcSimulator::Computer MpcSimulator::EvaluateQuery(
    const ConjunctiveQuery& query, bool keep_received) {
  // A full query derives each of its rows from one valuation only, so its
  // blocks hold distinct rows. A projecting one derives a row once per
  // valuation, which may be far more than its distinct rows, so those go
  // through a set first: RunRound sizes the round output for the servers'
  // row counts.
  const bool full = query.IsFull();
  return [&query, full, keep_received](NodeId, Instance& received) {
    ComputeResult result;
    if (full) {
      EvaluateIntoBatches(query, received,
                          [&result](RelationId relation, const Value* rows,
                                    std::size_t count, std::size_t arity) {
                            result.output.AppendRows(relation, rows, count,
                                                     arity);
                          });
    } else {
      result.output.AppendAll(Evaluate(query, received));
    }
    if (keep_received) result.next_state = std::move(received);
    return result;
  };
}

Instance MpcSimulator::GlobalState() const {
  Instance global;
  for (const Instance& local : locals_) global.InsertAll(local);
  return global;
}

MpcSimulator::Router RouteBy(const DistributionPolicy& policy) {
  return [&policy](NodeId, transport::RowRef row,
                   std::vector<NodeId>& targets) {
    policy.RouteRow(row.relation, row.row, row.arity, targets);
  };
}

}  // namespace lamp
