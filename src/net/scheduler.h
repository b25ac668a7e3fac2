#ifndef LAMP_NET_SCHEDULER_H_
#define LAMP_NET_SCHEDULER_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "net/transducer.h"

/// \file
/// The scheduler of the asynchronous network runner, and the fault plans
/// it executes.
///
/// The runner (net/network.h) is the *mechanism*: it owns node states,
/// channels and counters, and executes one SchedulerAction at a time. The
/// Scheduler is the *policy*: at every decision point it is shown the
/// channel contents and decides what happens next — which message is
/// delivered, whether a delivery attempt fails (the sender retransmits),
/// whether a message is duplicated, or whether a node crashes/restarts.
///
/// The paper's CALM results (Section 5) quantify over *all* asynchronous
/// runs: arbitrary delay, duplication, and loss with retransmission. A
/// FaultPlan makes one such run describable as data: a delivery
/// discipline (how the in-flight message to deliver next is chosen) plus
/// a list of discrete fault events keyed by the scheduler's step counter.
/// The empty plan is the plain seeded run: heartbeats in shuffled order,
/// then a uniform random nonempty channel and a uniform random message
/// per step; TransducerNetwork::Run(seed) is exactly that run. Plans
/// render as one line of text for witness reports, and — being plain event
/// lists — are the unit the fault explorer's delta-debugger shrinks
/// (fault/explorer.h); the plan generators live in fault/plan.h.
///
/// Liveness by construction: every run terminates with every message
/// delivered (possibly after drops, duplication, partitions and
/// crashes), because
///   * drops never discard the queued copy (loss-with-retransmission);
///   * duplication budgets are finite (one copy per kDuplicateNext);
///   * when no delivery is possible the scheduler *forces* progress —
///     it fast-forwards to the plan's next event, and once the plan is
///     exhausted it heals partitions and restarts crashed nodes on its
///     own.
/// So every run is a legal asynchronous run in the paper's model (finite
/// delay, finite duplication, no true loss), which is exactly the class
/// of runs CALM quantifies over.

namespace lamp {

/// How the scheduler picks among deliverable messages.
enum class DeliveryDiscipline : std::uint8_t {
  kUniform = 0,   // Uniform random channel + message (the seed runner).
  kOldestFirst,   // Random channel, FIFO within it.
  kNewestFirst,   // Random channel, LIFO within it (starves old messages).
  kStarve,        // Deliver to starve_target only when nothing else can go.
};

std::string_view DeliveryDisciplineName(DeliveryDiscipline discipline);

/// One discrete fault, applied when the scheduler's step counter reaches
/// `step` (or earlier, if the run would otherwise be stuck — heals and
/// restarts are also forced when no delivery is possible, so every plan
/// is live).
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kDropNext,       // The next delivery attempt fails (sender retransmits).
    kDuplicateNext,  // The next delivery leaves a duplicate copy in flight.
    kCrash,          // `node` goes down; `durable` keeps its state.
    kRestart,        // `node` comes back up (see net/network.h semantics).
    kPartition,      // `group` is isolated from the rest of the network.
    kHeal,           // The active partition is removed.
  };

  Kind kind = Kind::kDropNext;
  std::size_t step = 0;
  NodeId node = 0;            // Crash/restart target.
  bool durable = false;       // Crash mode.
  std::vector<NodeId> group;  // Partition: the isolated group.
};

std::string_view FaultEventKindName(FaultEvent::Kind kind);

/// A complete schedule description; the default one injects no fault.
struct FaultPlan {
  DeliveryDiscipline discipline = DeliveryDiscipline::kUniform;
  NodeId starve_target = 0;       // Used by DeliveryDiscipline::kStarve.
  std::vector<FaultEvent> events; // Kept sorted by step (stable).

  /// Stable-sorts events by step (generators and the minimizer call it).
  void Normalize();

  bool Empty() const {
    return discipline == DeliveryDiscipline::kUniform && events.empty();
  }

  /// True when some event is a volatile (non-durable) crash — those runs
  /// need the runner's redelivery log.
  bool HasVolatileCrash() const;

  /// "discipline=newest-first events=[dup@3 crash(n2,volatile)@5 ...]".
  std::string ToString() const;
};

/// What the runner shows the scheduler at each decision point. All spans
/// refer to runner-owned storage and are only valid during the Next call.
struct ChannelView {
  /// queued_from[node] lists the sender of every message waiting in that
  /// node's channel, oldest first; indices align with the runner's queue.
  const std::vector<std::vector<NodeId>>& queued_from;
  /// node_up[node] is false while the node is crashed.
  const std::vector<bool>& node_up;
  /// Scheduler decisions executed so far (monotone; includes non-delivery
  /// actions such as drops and crashes).
  std::size_t step;
};

/// One decision. The runner validates and executes it.
struct SchedulerAction {
  enum class Kind : std::uint8_t {
    kNone = 0,   // Nothing to do; the runner finishes if quiescent.
    kDeliver,    // Deliver queue[node][index] and consume it.
    kDrop,       // Fail this delivery attempt; the queued copy stays (the
                 // sender retransmits), so delivery is only postponed.
    kDuplicate,  // Deliver queue[node][index] but keep it queued: one
                 // duplicate copy remains in flight.
    kCrash,      // Take node down. `durable` selects whether its state
                 // survives the outage.
    kRestart,    // Bring node back up. OnStart fires again; after a
                 // volatile crash the state resets to the initial local
                 // database and everything the node had consumed is
                 // retransmitted by the channel.
  };

  Kind kind = Kind::kNone;
  NodeId node = 0;        // Receiver (deliveries) or crash/restart target.
  std::size_t index = 0;  // Message index within the node's queue.
  bool durable = false;   // Crash mode.

  static SchedulerAction Deliver(NodeId node, std::size_t index) {
    return {Kind::kDeliver, node, index, false};
  }
  static SchedulerAction Drop(NodeId node, std::size_t index) {
    return {Kind::kDrop, node, index, false};
  }
  static SchedulerAction Duplicate(NodeId node, std::size_t index) {
    return {Kind::kDuplicate, node, index, false};
  }
  static SchedulerAction Crash(NodeId node, bool durable) {
    return {Kind::kCrash, node, 0, durable};
  }
  static SchedulerAction Restart(NodeId node) {
    return {Kind::kRestart, node, 0, false};
  }
};

/// Executes a FaultPlan on top of a seeded base schedule.
class Scheduler {
 public:
  /// \p seed drives the base schedule (heartbeat order + tie-breaking
  /// among deliverable messages). Runs are deterministic in (plan, seed).
  Scheduler(FaultPlan plan, std::uint64_t seed);

  /// Order in which the heartbeat (OnStart) transitions fire.
  std::vector<NodeId> StartOrder(std::size_t num_nodes);

  /// The next action. Returning kNone asserts the network is quiescent
  /// (every channel empty, every node up); the runner checks that.
  SchedulerAction Next(const ChannelView& view);

  /// True when the runner must log consumed messages so a volatile
  /// restart can retransmit them; runs without one pay nothing for it.
  bool WantsRedeliveryLog() const { return plan_.HasVolatileCrash(); }

  /// Faults forced outside their planned step to keep the run live
  /// (auto-heals, auto-restarts).
  std::size_t forced_recoveries() const { return forced_recoveries_; }

 private:
  /// Applies one plan event. Internal events (partition, heal, drop, dup)
  /// mutate scheduler state and return kNone; crash/restart return the
  /// runner-visible action (or kNone when invalid, e.g. double crash).
  SchedulerAction ApplyEvent(const FaultEvent& event, const ChannelView& view);

  /// True when the partition blocks `from` -> `to` delivery.
  bool Blocked(NodeId from, NodeId to) const;

  /// True when \p to has a message it may receive now.
  bool HasDeliverable(const ChannelView& view, NodeId to) const;

  FaultPlan plan_;
  Rng rng_;
  std::size_t next_event_ = 0;
  bool partition_active_ = false;
  std::set<NodeId> partition_group_;
  std::size_t pending_drops_ = 0;
  std::size_t pending_dups_ = 0;
  std::size_t forced_recoveries_ = 0;
  // Reused across steps so a decision allocates nothing once warm.
  std::vector<NodeId> ready_;
  std::vector<std::size_t> choices_;
};

}  // namespace lamp

#endif  // LAMP_NET_SCHEDULER_H_
