#include "net/scheduler.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace lamp {

void FaultPlan::Normalize() {
  // Insertion sort: stable, and linear on the sorted plans the generators
  // build. (std::stable_sort over FaultEvent adds ~25 KB of code to every
  // binary that runs a schedule.)
  for (std::size_t i = 1; i < events.size(); ++i) {
    for (std::size_t j = i; j > 0 && events[j].step < events[j - 1].step;
         --j) {
      std::swap(events[j], events[j - 1]);
    }
  }
}

bool FaultPlan::HasVolatileCrash() const {
  for (const FaultEvent& e : events) {
    if (e.kind == FaultEvent::Kind::kCrash && !e.durable) return true;
  }
  return false;
}

Scheduler::Scheduler(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(seed) {
  plan_.Normalize();
}

std::vector<NodeId> Scheduler::StartOrder(std::size_t num_nodes) {
  std::vector<NodeId> order(num_nodes);
  for (NodeId i = 0; i < num_nodes; ++i) order[i] = i;
  rng_.Shuffle(order);
  return order;
}

bool Scheduler::Blocked(NodeId from, NodeId to) const {
  if (!partition_active_) return false;
  return partition_group_.count(from) != partition_group_.count(to);
}

bool Scheduler::HasDeliverable(const ChannelView& view, NodeId to) const {
  const std::vector<NodeId>& senders = view.queued_from[to];
  if (!partition_active_) return !senders.empty();
  for (NodeId from : senders) {
    if (!Blocked(from, to)) return true;
  }
  return false;
}

SchedulerAction Scheduler::ApplyEvent(const FaultEvent& event,
                                      const ChannelView& view) {
  switch (event.kind) {
    case FaultEvent::Kind::kDropNext:
      ++pending_drops_;
      return {};
    case FaultEvent::Kind::kDuplicateNext:
      ++pending_dups_;
      return {};
    case FaultEvent::Kind::kCrash:
      // The runner applies every crash or restart this returns before the
      // next decision, so node_up is the whole crash state.
      LAMP_CHECK(event.node < view.node_up.size());
      if (!view.node_up[event.node]) return {};  // Already down.
      return SchedulerAction::Crash(event.node, event.durable);
    case FaultEvent::Kind::kRestart:
      LAMP_CHECK(event.node < view.node_up.size());
      if (view.node_up[event.node]) return {};  // Not down.
      return SchedulerAction::Restart(event.node);
    case FaultEvent::Kind::kPartition:
      partition_active_ = true;
      partition_group_.clear();
      partition_group_.insert(event.group.begin(), event.group.end());
      obs::Emit(obs::EventKind::kNetPartition,
                static_cast<std::uint32_t>(partition_group_.size()), 0,
                view.step);
      return {};
    case FaultEvent::Kind::kHeal:
      if (partition_active_) {
        partition_active_ = false;
        partition_group_.clear();
        obs::Emit(obs::EventKind::kNetHeal, 0, 0, view.step);
      }
      return {};
  }
  return {};
}

SchedulerAction Scheduler::Next(const ChannelView& view) {
  const std::size_t n = view.queued_from.size();

  while (true) {
    // Apply every plan event due at this step. Internal events are
    // absorbed; runner-visible ones (crash/restart) are returned.
    while (next_event_ < plan_.events.size() &&
           plan_.events[next_event_].step <= view.step) {
      const FaultEvent& event = plan_.events[next_event_++];
      const SchedulerAction action = ApplyEvent(event, view);
      if (action.kind != SchedulerAction::Kind::kNone) return action;
    }

    // Receivers with a deliverable message: up, edge not cut.
    ready_.clear();
    for (NodeId to = 0; to < n; ++to) {
      if (view.node_up[to] && HasDeliverable(view, to)) ready_.push_back(to);
    }

    if (ready_.empty()) {
      // Nothing deliverable. Fast-forward to the plan's next event; once
      // the plan is exhausted, force recovery so the run stays live.
      if (next_event_ < plan_.events.size()) {
        const FaultEvent& event = plan_.events[next_event_++];
        ++forced_recoveries_;
        const SchedulerAction action = ApplyEvent(event, view);
        if (action.kind != SchedulerAction::Kind::kNone) return action;
        continue;
      }
      if (partition_active_) {
        partition_active_ = false;
        partition_group_.clear();
        ++forced_recoveries_;
        obs::Emit(obs::EventKind::kNetHeal, 0, 0, view.step);
        continue;
      }
      for (NodeId node = 0; node < n; ++node) {
        if (!view.node_up[node]) {
          ++forced_recoveries_;
          return SchedulerAction::Restart(node);
        }
      }
      for (const std::vector<NodeId>& senders : view.queued_from) {
        LAMP_CHECK_MSG(senders.empty(),
                       "scheduler stuck with undeliverable messages");
      }
      return {};
    }

    // Starvation: serve the starved node only when it is the last option.
    if (plan_.discipline == DeliveryDiscipline::kStarve && ready_.size() > 1) {
      const auto it =
          std::find(ready_.begin(), ready_.end(), plan_.starve_target);
      if (it != ready_.end()) ready_.erase(it);
    }

    // Pick among the chosen channel's deliverable messages. Only a
    // partition hides some of them; without one every queued index is a
    // candidate and no index list is built.
    const NodeId node = ready_[rng_.Uniform(ready_.size())];
    std::size_t candidates = view.queued_from[node].size();
    if (partition_active_) {
      choices_.clear();
      for (std::size_t i = 0; i < candidates; ++i) {
        if (!Blocked(view.queued_from[node][i], node)) choices_.push_back(i);
      }
      candidates = choices_.size();
    }
    std::size_t pick = 0;
    switch (plan_.discipline) {
      case DeliveryDiscipline::kOldestFirst:
        pick = 0;
        break;
      case DeliveryDiscipline::kNewestFirst:
        pick = candidates - 1;
        break;
      default:
        pick = rng_.Uniform(candidates);
        break;
    }
    if (partition_active_) pick = choices_[pick];

    if (pending_drops_ > 0) {
      --pending_drops_;
      return SchedulerAction::Drop(node, pick);
    }
    if (pending_dups_ > 0) {
      --pending_dups_;
      return SchedulerAction::Duplicate(node, pick);
    }
    return SchedulerAction::Deliver(node, pick);
  }
}

}  // namespace lamp
