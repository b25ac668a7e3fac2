#include "mpc/simulator.h"

#include <algorithm>

#include "common/check.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace lamp {

namespace {

/// One routed fact in a worker's outbox, as a columnar row reference. The
/// row pointer aims into the source server's local instance, which is
/// immutable for the whole communication phase — routing copies no facts.
struct Routed {
  transport::RowRef row;
  NodeId source;
};

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
  std::size_t i = 0;
  global.ForEachFact([this, p, &i](const Fact& f) {
    if (IsLocal(i % p)) locals_[i % p].Insert(f);
    ++i;
  });
}

void MpcSimulator::LoadLocals(std::vector<Instance> locals) {
  LAMP_CHECK(locals.size() == locals_.size());
  locals_ = std::move(locals);
  output_ = Instance();
  stats_ = RunStats();
}

void MpcSimulator::RunRound(const Router& route, const Computer& compute) {
  const std::size_t p = locals_.size();
  const auto round_idx = static_cast<std::uint32_t>(stats_.rounds.size());
  obs::Emit(obs::EventKind::kMpcRoundBegin, round_idx, 0, p);

  par::ThreadPool& pool = par::GlobalPool();

  // Communication phase, step 1: each worker routes a contiguous shard of
  // source servers into its own per-target outbox. Within an outbox the
  // routed facts appear in (source, fact, route-target) order — the order
  // the serial loop would visit them.
  std::vector<Instance> received(p);
  RoundStats round;
  round.received.assign(p, 0);
  round.wire_bytes.assign(p, 0);
  {
    obs::TraceSpan span("mpc.route", round_idx);
    const std::size_t shards = pool.NumChunks(p);
    std::vector<std::vector<std::vector<Routed>>> outbox(shards);
    pool.ParallelChunks(
        0, p,
        [this, p, &route, &outbox](std::size_t shard, std::size_t lo,
                                   std::size_t hi) {
          std::vector<std::vector<Routed>>& out = outbox[shard];
          out.resize(p);
          Fact scratch;  // Router argument, rebuilt per row.
          for (std::size_t source = lo; source < hi; ++source) {
            if (!IsLocal(source)) continue;
            const auto src = static_cast<NodeId>(source);
            const Instance& local = locals_[source];
            for (RelationId rel = 0; rel < local.NumRelationIds(); ++rel) {
              const RowsView rows = local.RowsOf(rel);
              if (rows.num_rows == 0) continue;
              scratch.relation = rel;
              for (std::size_t i = 0; i < rows.num_rows; ++i) {
                const Value* row = rows.Row(i);
                scratch.args.assign(row, row + rows.arity);
                for (NodeId target : route(src, scratch)) {
                  LAMP_CHECK(target < p);
                  out[target].push_back(Routed{
                      transport::RowRef{
                          rel, row, static_cast<std::uint32_t>(rows.arity)},
                      src});
                }
              }
            }
          }
        });

    transport::Transport* wire = WireTransport();
    if (wire == nullptr) {
      // Step 2 (in-process): merge outboxes per target, ascending shard
      // order. Targets are independent, so the merge itself fans out; the
      // per-target insert sequence equals the serial one, keeping dedup
      // decisions and load counts byte-identical. A fact kept at its
      // current server is not communicated: it persists but does not count
      // toward the load (the model's load is the data *received* by a
      // server during the round). Wire bytes are accounted in closed form:
      // the bytes the socket backends would ship for the same traffic,
      // one kFactBatch frame per (source, target) run.
      pool.ParallelFor(0, p, [&received, &round, &outbox,
                              round_idx](std::size_t target) {
        const auto tgt = static_cast<NodeId>(target);
        std::size_t& load = round.received[target];
        std::size_t& bytes = round.wire_bytes[target];
        NodeId run_source = 0;
        std::size_t run_count = 0;
        std::size_t run_fact_bytes = 0;
        const auto flush_run = [&] {
          if (run_count == 0) return;
          const std::size_t payload = transport::VarintSize(round_idx) +
                                      transport::VarintSize(run_count) +
                                      run_fact_bytes;
          bytes += transport::FactBatchFrameSize(run_source, tgt, payload);
          run_count = 0;
          run_fact_bytes = 0;
        };
        for (const auto& out : outbox) {
          for (const Routed& r : out[target]) {
            if (r.source != tgt) {
              if (run_count != 0 && r.source != run_source) flush_run();
              run_source = r.source;
              ++run_count;
              run_fact_bytes += transport::EncodedRowSize(r.row);
            }
            if (received[target].InsertRow(r.row.relation, r.row.row,
                                           r.row.arity) &&
                tgt != r.source) {
              ++load;
            }
          }
        }
        flush_run();
      });
    } else {
      // Step 2 (sockets): serialize each (source, target != source) run
      // into one kFactBatch frame, then hand the whole round to the
      // transport in one SendBatch call (a loopback backend writes each
      // destination's frames at once). Sources are ascending per target
      // (shards are contiguous ascending ranges), so senders[t] comes out
      // ascending too.
      std::vector<transport::WireFrame> frames;
      const auto ship = [&frames, round_idx](
                            NodeId src, NodeId target,
                            const std::vector<transport::RowRef>& rows) {
        frames.push_back(transport::WireFrame{
            transport::kWireVersion, transport::FrameType::kFactBatch, src,
            static_cast<std::uint32_t>(target),
            transport::EncodeFactBatchPayload(round_idx, rows)});
      };
      std::vector<std::vector<NodeId>> senders(p);
      std::vector<transport::RowRef> batch;
      for (const auto& out : outbox) {
        for (std::size_t target = 0; target < p; ++target) {
          const std::vector<Routed>& entries = out[target];
          std::size_t i = 0;
          while (i < entries.size()) {
            const NodeId src = entries[i].source;
            batch.clear();
            while (i < entries.size() && entries[i].source == src) {
              batch.push_back(entries[i].row);
              ++i;
            }
            if (src == static_cast<NodeId>(target)) continue;  // Stays local.
            ship(src, static_cast<NodeId>(target), batch);
            senders[target].push_back(src);
          }
        }
      }
      // Remote targets expect one batch from every source, empty or not.
      batch.clear();
      for (NodeId target = 0; target < p; ++target) {
        if (wire->IsLocal(target)) continue;
        for (NodeId src = 0; src < p; ++src) {
          if (IsLocal(src) && !std::binary_search(senders[target].begin(),
                                                  senders[target].end(), src)) {
            ship(src, target, batch);
          }
        }
      }
      wire->SendBatch(std::move(frames));
      // Each local target drains its channels in ascending source order,
      // interleaving the self-routed (local) entries at its own position —
      // the exact in-process insert sequence, so digests cannot move.
      pool.ParallelFor(0, p, [this, &received, &round, &outbox, &senders,
                              wire, p, round_idx](std::size_t target) {
        if (!IsLocal(target)) return;
        const auto tgt = static_cast<NodeId>(target);
        std::size_t& load = round.received[target];
        std::size_t next = 0;
        for (NodeId source = 0; source < p; ++source) {
          if (source == tgt) {
            for (const auto& out : outbox) {
              for (const Routed& r : out[target]) {
                if (r.source == tgt) {
                  received[target].InsertRow(r.row.relation, r.row.row,
                                             r.row.arity);
                }
              }
            }
            continue;
          }
          if (wire->IsLocal(source)) {
            if (next >= senders[target].size() ||
                senders[target][next] != source) {
              continue;  // That source routed nothing here this round.
            }
            ++next;
          }
          transport::WireFrame frame = wire->Recv(
              static_cast<std::uint32_t>(target), source);
          LAMP_CHECK(frame.type == transport::FrameType::kFactBatch);
          // The batch is decoded and validated whole before any row of
          // it is inserted.
          const auto decoded =
              transport::DecodeFactBatchPayload(frame.payload);
          LAMP_CHECK_MSG(decoded.has_value() && decoded->round == round_idx,
                         "mpc: malformed fact batch on the wire");
          if (decoded->facts.empty()) continue;  // Not communication.
          round.wire_bytes[target] += transport::FrameWireSize(frame);
          for (const transport::RowRef row : decoded->facts) {
            if (received[target].InsertRow(row.relation, row.row,
                                           row.arity)) {
              ++load;
            }
          }
        }
      });
    }
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
  // per-server slot and are folded into output in ascending server order,
  // matching the serial loop.
  {
    obs::TraceSpan span("mpc.compute", round_idx);
    std::vector<ComputeResult> results(p);
    pool.ParallelFor(0, p, [this, &compute, &received,
                            &results](std::size_t server) {
      if (!IsLocal(server)) return;
      results[server] = compute(static_cast<NodeId>(server), received[server]);
    });
    for (NodeId server = 0; server < p; ++server) {
      locals_[server] = std::move(results[server].next_state);
      output_.InsertAll(results[server].output);
    }
  }
  obs::Emit(obs::EventKind::kMpcRoundEnd, round_idx, 0, round_total);
}

transport::Transport* MpcSimulator::WireTransport() {
  if (explicit_ != nullptr) return explicit_;
  const transport::TransportKind kind = transport::ActiveKind();
  if (kind == transport::TransportKind::kInProcess) return nullptr;
  if (transport_ == nullptr || transport_->kind() != kind ||
      transport_->num_endpoints() != locals_.size()) {
    transport_ = transport::MakeLoopbackTransport(kind, locals_.size());
  }
  return transport_.get();
}

MpcSimulator::Computer MpcSimulator::KeepAll() {
  return [](NodeId, const Instance& received) {
    return ComputeResult{received, Instance()};
  };
}

Instance MpcSimulator::GlobalState() const {
  Instance global;
  for (const Instance& local : locals_) global.InsertAll(local);
  return global;
}

}  // namespace lamp
