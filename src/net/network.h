#ifndef LAMP_NET_NETWORK_H_
#define LAMP_NET_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/scheduler.h"
#include "net/transducer.h"
#include "obs/metrics.h"

/// \file
/// The asynchronous runner for transducer networks.
///
/// Computation is a transition system: at every step one node is active;
/// message delivery order is nondeterministic (modelling arbitrary delay).
/// Scheduling decisions are delegated to the Scheduler (net/scheduler.h),
/// which executes a FaultPlan over a seeded base schedule: Run(seed) is
/// the empty plan, one concrete uniform run per seed; eventual-consistency
/// checks sweep many seeds, and the fault-injection subsystem (src/fault)
/// generates plans that drop (with retransmission), duplicate, reorder,
/// partition and crash. A run ends at
/// *quiescence*: every channel empty and every node up (our programs are
/// inflationary, so no further output can appear after that). The
/// coordination-freeness probe runs the heartbeat transitions only and
/// never delivers messages — Section 5.1's definition requires some ideal
/// distribution on which that already computes the query.

namespace lamp {

/// Outcome of one run. Communication counters live in the metrics
/// registry (the single source of truth — net and MPC runs report
/// through one schema, see obs/metrics.h); the named accessors read the
/// canonical counters back out.
struct NetworkRunResult {
  Instance output;               // Union of all nodes' output relations.
  obs::MetricsRegistry metrics;  // net.* counters + histograms.

  /// Point-to-point message count (net.messages_sent).
  std::size_t messages_sent() const {
    return metrics.CounterValue(obs::kNetMessagesSent);
  }
  /// Sum of message sizes in facts (net.facts_transferred).
  std::size_t facts_transferred() const {
    return metrics.CounterValue(obs::kNetFactsTransferred);
  }
  /// Serialized bytes of every broadcast copy in lamp.wire.v1 framing
  /// (net.wire_bytes) — measured on socket backends, computed in closed
  /// form in-process; identical across backends by construction.
  std::size_t wire_bytes() const {
    return metrics.CounterValue(obs::kNetWireBytes);
  }
  /// Deliveries performed to quiescence (net.transitions).
  std::size_t transitions() const {
    return metrics.CounterValue(obs::kNetTransitions);
  }
  /// Causal depth at which the run produced its first output fact
  /// (net.coordination_depth). 0 = output appeared during a heartbeat,
  /// before any message was read — the coordination-free profile; also 0
  /// when the run produced no output at all. The paper's Section 5.1
  /// definition asks for *some* ideal distribution with this profile, so
  /// the certification probe evaluates it on DistributeReplicated locals.
  std::size_t coordination_depth() const {
    const obs::Gauge* g = metrics.FindGauge(obs::kNetCoordinationDepth);
    return g == nullptr ? 0 : static_cast<std::size_t>(g->value());
  }
  /// Deepest Lamport causal depth delivered (net.causal_max_depth).
  std::size_t causal_max_depth() const {
    const obs::Gauge* g = metrics.FindGauge(obs::kNetCausalMaxDepth);
    return g == nullptr ? 0 : static_cast<std::size_t>(g->value());
  }
};

/// One transducer network execution environment.
class TransducerNetwork {
 public:
  /// \p locals is the horizontal distribution H (one local database per
  /// node). \p policy may be nullptr (policy-unaware network). When
  /// \p aware is false the run aborts if the program queries NetworkSize
  /// (the class A_i of oblivious networks).
  TransducerNetwork(std::vector<Instance> locals, TransducerProgram& program,
                    const DistributionPolicy* policy = nullptr,
                    bool aware = true);

  /// Runs to quiescence with uniform random delivery driven by \p seed
  /// (RunWith the empty plan; byte-identical to the historical seeded
  /// runner, per seed).
  NetworkRunResult Run(std::uint64_t seed);

  /// Runs to quiescence with \p scheduler deciding every delivery, drop,
  /// duplication, crash and restart. Fault semantics:
  ///  * drop: the delivery attempt fails but the queued copy survives
  ///    (loss with retransmission — delivery is postponed, never lost);
  ///  * duplicate: the message is delivered now and a copy stays queued;
  ///  * crash (durable): the node stops being scheduled; its state and
  ///    channel survive; on restart OnStart fires again;
  ///  * crash (volatile): additionally the state resets to the initial
  ///    local database, and on restart every message the node had
  ///    already consumed is requeued (channel-level at-least-once
  ///    delivery), after which OnStart fires again.
  /// Outputs are external (already emitted to the environment) and are
  /// never rolled back by a crash.
  NetworkRunResult RunWith(Scheduler& scheduler);

  /// Heartbeat-only run: OnStart fires everywhere, in node order, but no
  /// message is ever read (they are sent and counted like RunWith's, then
  /// dropped).
  NetworkRunResult RunWithoutDelivery();

 private:
  /// The runner; a null \p scheduler is the heartbeat-only run.
  NetworkRunResult Execute(Scheduler* scheduler);

  std::vector<Instance> locals_;
  TransducerProgram& program_;
  const DistributionPolicy* policy_;
  bool aware_;
};

/// Round-robin distribution over \p num_nodes nodes.
std::vector<Instance> DistributeRoundRobin(const Instance& instance,
                                           std::size_t num_nodes);

/// The "ideal" distribution that replicates the full instance everywhere.
std::vector<Instance> DistributeReplicated(const Instance& instance,
                                           std::size_t num_nodes);

}  // namespace lamp

#endif  // LAMP_NET_NETWORK_H_
