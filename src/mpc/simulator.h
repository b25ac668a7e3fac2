#ifndef LAMP_MPC_SIMULATOR_H_
#define LAMP_MPC_SIMULATOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "cq/cq.h"
#include "distribution/policy.h"
#include "mpc/stats.h"
#include "relational/instance.h"
#include "transport/transport.h"

/// \file
/// The MPC execution model (Section 3 of the paper): p servers, rounds of a
/// communication phase (every server routes each of its facts to a set of
/// servers) followed by a computation phase (local function of the received
/// data). What the simulator *measures* — per-server received tuples — is
/// exactly the quantity the surveyed load bounds speak about. The answer is
/// the union of the servers' local answers: each server emits output rows,
/// and the round output takes them in ascending server order, dropping
/// repeats.
///
/// Every instance on this path is sized once. LoadInput deals each server
/// its round-robin share into presized relations (RoundRobinPart); the
/// drain below presizes each target's received relations; the round
/// output is presized for the sum of the servers' row counts before their
/// rows go in.
///
/// Execution is parallel across the lamp::par global pool and
/// *deterministic*: each worker routes a contiguous shard of source servers
/// into per-(worker, target) outboxes, which are drained per target in
/// ascending worker order. Because shards partition the sources in
/// ascending order, that drain replays exactly the serial source-ascending
/// insert sequence, so outputs, dedup decisions and RoundStats are
/// byte-identical at every thread count (DESIGN.md §lamp::par). The Router
/// and Computer callbacks are invoked concurrently when the pool has more
/// than one lane and must therefore be thread-safe for distinct servers
/// (the stock policies and CQ evaluation are; they share only const state).
///
/// Accounting convention: the load of a server in a round is the number of
/// distinct tuples it receives from *other* servers. A fact a server routes
/// to itself persists into the next phase but is not communication (multi-
/// round algorithms use self-routing to keep relations in place for later
/// rounds). With round-robin initial placement, accidental self-hits are a
/// 1/p effect on measured loads.
///
/// Backend selection: transport::ActiveKind() picks where the routed facts
/// travel, and every backend runs the same exchange. The outboxes hold row
/// references, each with its encoded size computed once per source row;
/// the rows one source routes to one target form a run. Each local target
/// first sizes its receive storage for the rows routed to it
/// (Instance::Reserve), then drains its runs in ascending source order,
/// merging rows with InsertRow. The in-process default builds no
/// Transport: a target takes every run straight from the outbox and
/// accounts its wire bytes in closed form from the stored row sizes
/// (transport::FactBatchFrameSize).
/// tcp first serializes each run that leaves its server into one
/// lamp.wire.v1 kFactBatch frame and hand the round's frames to a loopback
/// transport in one Transport::SendBatch call (src/transport); a target
/// then takes its own run from the outbox and every other run from the
/// decoded frame, counting the bytes it received. The insert sequence is
/// the serial one either way, so outputs, dedup decisions and RoundStats
/// (wire bytes included) are byte-identical across backends.
///
/// Over an explicit transport (a MeshTransport rank) a simulator drives
/// only the servers the transport reports local. It sends every remote
/// server one batch per round, empty or not, and drains remote sources at
/// their place in the source order; empty batches never count as wire
/// bytes, so all ranks together reproduce the single-simulator run exactly.

namespace lamp {

/// Simulates one MPC cluster execution.
class MpcSimulator {
 public:
  /// Routes one row (held by server \p source) by appending its target
  /// servers to \p targets, which arrives empty: each worker clears and
  /// reuses one vector across every row it routes. Appending nothing drops
  /// the row; a target appended twice receives the row twice (the second
  /// insert is a duplicate). Called concurrently for distinct sources, so
  /// it must be thread-safe for them. A DistributionPolicy routes through
  /// RouteBy.
  using Router = std::function<void(NodeId source, transport::RowRef row,
                                    std::vector<NodeId>& targets)>;

  /// Computation phase of one server: turns the received local instance
  /// into the next round's local state and the server's output rows. The
  /// rows may repeat across servers: the round output is their union
  /// (RunRound drops repeats), so a server that derives distinct rows
  /// builds no set of its own. RunRound sizes the round output for the sum
  /// of the servers' row counts, so a server whose rows would repeat many
  /// times over dedups them first.
  struct ComputeResult {
    Instance next_state;
    transport::FactRows output;
  };
  /// Called concurrently for distinct servers. \p received is the
  /// server's own and is discarded after the call, so a computer that
  /// keeps it moves it into next_state instead of copying it.
  using Computer =
      std::function<ComputeResult(NodeId server, Instance& received)>;

  explicit MpcSimulator(std::size_t num_servers);

  /// One server per endpoint of \p transport, which must outlive the
  /// simulator; every round runs over it, whatever ActiveKind() says.
  explicit MpcSimulator(transport::Transport& transport);

  /// Distributes \p global round-robin over the servers ("the input data
  /// is initially partitioned among the p servers"), keeping only the
  /// local servers' shares. Resets stats/output.
  void LoadInput(const Instance& global);

  /// Executes one round: route every fact of every server with \p route,
  /// then run \p compute per server on the received data. Load statistics
  /// for the round are appended to stats().
  void RunRound(const Router& route, const Computer& compute);

  /// A computation phase that evaluates nothing and keeps the received
  /// data as next state (pure reshuffle).
  static Computer KeepAll();

  /// A computation phase that outputs the rows of \p query on the received
  /// data. A full query's rows are distinct and go out block by block as
  /// EvaluateIntoBatches derives them; a projecting query's rows are
  /// deduplicated first (Evaluate). The next state is empty, or the
  /// received data itself when \p keep_received.
  /// \p query must outlive the computer.
  static Computer EvaluateQuery(const ConjunctiveQuery& query,
                                bool keep_received = false);

  std::size_t num_servers() const { return locals_.size(); }
  const std::vector<Instance>& locals() const { return locals_; }
  const Instance& output() const { return output_; }
  const RunStats& stats() const { return stats_; }

  /// Union of all server states (for assertions).
  Instance GlobalState() const;

 private:
  /// The transport for this round: the constructor's, else a tcp
  /// loopback backend created on the first RunRound when
  /// transport::ActiveKind() is kTcp, rebuilt when the server count
  /// changes (nullptr otherwise: the zero-copy in-process path).
  transport::Transport* WireTransport();

  bool IsLocal(std::size_t server) const {
    return explicit_ == nullptr ||
           explicit_->IsLocal(static_cast<std::uint32_t>(server));
  }

  std::vector<Instance> locals_;
  Instance output_;
  RunStats stats_;
  transport::Transport* explicit_ = nullptr;
  std::unique_ptr<transport::Transport> transport_;
};

/// The Router of a one-round distribution policy (Section 4.1): a row goes
/// to the nodes policy.RouteRow names, whichever server holds it. This is
/// the one place a policy becomes a Router. \p policy must outlive it.
MpcSimulator::Router RouteBy(const DistributionPolicy& policy);

}  // namespace lamp

#endif  // LAMP_MPC_SIMULATOR_H_
