#include "net/network.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "transport/transport.h"

namespace lamp {

std::size_t NodeContext::NetworkSize() const {
  LAMP_CHECK_MSG(aware_, "oblivious (A_i) program queried the All relation");
  return network_size_;
}

TransducerNetwork::TransducerNetwork(std::vector<Instance> locals,
                                     TransducerProgram& program,
                                     const DistributionPolicy* policy,
                                     bool aware)
    : locals_(std::move(locals)),
      program_(program),
      policy_(policy),
      aware_(aware) {
  LAMP_CHECK(!locals_.empty());
}

NetworkRunResult TransducerNetwork::Run(std::uint64_t seed) {
  Scheduler scheduler(FaultPlan{}, seed);
  return RunWith(scheduler);
}

NetworkRunResult TransducerNetwork::RunWith(Scheduler& scheduler) {
  return Execute(&scheduler);
}

NetworkRunResult TransducerNetwork::RunWithoutDelivery() {
  return Execute(nullptr);
}

NetworkRunResult TransducerNetwork::Execute(Scheduler* scheduler) {
  const std::size_t n = locals_.size();

  // One queued message. The sender is tracked so schedulers can express
  // channel-level faults (partitions, starvation) and so a volatile
  // restart can requeue exactly what the node had consumed. Each message
  // also carries its Lamport causal depth (heartbeat broadcasts are depth
  // 1; a message sent while processing a delivery is one deeper than the
  // deepest message its sender had consumed) and the transition index of
  // that deepest consumed message (+1; 0 = heartbeat origin) — the parent
  // pointer obs/audit/causal.h walks to reconstruct critical paths.
  struct InFlight {
    NodeId from;
    Message payload;
    std::uint64_t depth = 1;
    std::uint32_t parent = 0;
  };

  std::vector<Instance> states = locals_;
  std::vector<Instance> outputs(n);
  std::vector<std::vector<InFlight>> queue(n);
  std::vector<std::vector<NodeId>> queued_from(n);
  std::vector<bool> up(n, true);
  std::vector<bool> down_durably(n, false);
  // Messages consumed per node, kept only when the scheduler can issue a
  // volatile restart (fault-free runs pay nothing).
  const bool keep_log =
      scheduler != nullptr && scheduler->WantsRedeliveryLog();
  std::vector<std::vector<InFlight>> consumed(n);

  // Backend selection (transport::ActiveKind): in-process runs build no
  // transport. Over tcp every broadcast copy is framed (lamp.wire.v1
  // kMessage), written into the receiver's loopback socket and decoded
  // back into the receiver's channel *at dispatch time*. The channel
  // state at every scheduler decision point is therefore identical to the
  // in-process run, which is what makes the seeded Scheduler a pure
  // delivery-order policy the transport honors: the wire carries the
  // bytes, the scheduler still picks the order (and the faults), and
  // digests cannot move. In-process runs account the same wire bytes in
  // closed form, so net.wire_bytes is backend-invariant too; so does the
  // heartbeat-only run, which delivers nothing.
  std::unique_ptr<transport::Transport> wire;
  if (scheduler != nullptr &&
      transport::ActiveKind() != transport::TransportKind::kInProcess &&
      n > 1) {
    wire = transport::MakeLoopbackTransport(n);
  }
  std::uint64_t wire_seq = 0;

  NetworkRunResult result;
  obs::Counter& messages_sent =
      result.metrics.GetCounter(obs::kNetMessagesSent);
  obs::Counter& wire_bytes = result.metrics.GetCounter(obs::kNetWireBytes);
  obs::Counter& facts_transferred =
      result.metrics.GetCounter(obs::kNetFactsTransferred);
  obs::Counter& transitions = result.metrics.GetCounter(obs::kNetTransitions);
  obs::Counter& broadcasts = result.metrics.GetCounter(obs::kNetBroadcasts);
  obs::Histogram& message_size =
      result.metrics.GetHistogram(obs::kNetMessageSize);
  obs::Histogram& causal_depth =
      result.metrics.GetHistogram(obs::kNetCausalDepth);

  // Lamport causal tracking: clock[v] = deepest message node v has
  // consumed (0 before any delivery); dominant[v] = transition index + 1
  // of the delivery that set it. Crash/restart leaves both untouched —
  // even a volatile restart only resets *state*, not what the channel
  // history already forced the node to have seen.
  std::vector<std::uint64_t> clock(n, 0);
  std::vector<std::uint32_t> dominant(n, 0);
  std::uint64_t max_depth = 0;
  bool has_output = false;
  std::uint64_t first_output_depth = 0;

  auto dispatch = [&](NodeId from, std::vector<Message>& outgoing) {
    for (Message& msg : outgoing) {
      facts_transferred.Add(msg.size() * (n - 1));
      messages_sent.Add(n - 1);
      broadcasts.Increment();
      message_size.Observe(static_cast<double>(msg.size()));
      obs::Emit(obs::EventKind::kNetBroadcast,
                static_cast<std::uint32_t>(from), 0, msg.size());
      for (NodeId to = 0; to < n; ++to) {
        if (to == from) continue;
        const std::uint64_t depth = clock[from] + 1;
        const std::uint32_t parent = dominant[from];
        const std::uint64_t seq = wire_seq++;
        if (wire != nullptr) {
          transport::WireFrame frame;
          frame.type = transport::FrameType::kMessage;
          frame.from = from;
          frame.to = to;
          frame.payload =
              transport::EncodeMessagePayload(seq, depth, parent, msg);
          wire_bytes.Add(transport::FrameWireSize(frame));
          wire->Send(std::move(frame));
          transport::WireFrame got = wire->Recv(to, from);
          LAMP_CHECK(got.type == transport::FrameType::kMessage &&
                     got.from == from);
          auto decoded = transport::DecodeMessagePayload(got.payload);
          LAMP_CHECK_MSG(decoded.has_value() && decoded->seq == seq,
                         "net: malformed message on the wire");
          queue[to].push_back({from, std::move(decoded->facts),
                               decoded->depth, decoded->parent});
        } else {
          wire_bytes.Add(
              transport::MessageFrameSize(from, to, seq, depth, parent, msg));
          // The heartbeat-only run counts every copy but queues none.
          if (scheduler == nullptr) continue;
          queue[to].push_back({from, msg, depth, parent});
        }
        queued_from[to].push_back(from);
      }
    }
    outgoing.clear();
  };

  // Called after a transition of \p node that may have produced output;
  // records the causal depth of the first output and emits kNetOutput
  // (b = transition + 1, 0 for heartbeats) whenever output grew.
  auto note_output = [&](NodeId node, std::size_t before,
                         std::uint32_t transition_plus_1,
                         std::uint64_t depth) {
    if (outputs[node].Size() == before) return;
    if (!has_output) {
      has_output = true;
      first_output_depth = depth;
    }
    obs::Emit(obs::EventKind::kNetOutput, static_cast<std::uint32_t>(node),
              transition_plus_1, depth);
  };

  auto deliver = [&](NodeId node, const InFlight& msg) {
    const auto t = static_cast<std::uint32_t>(transitions.value());
    obs::Emit(obs::EventKind::kNetDeliver, static_cast<std::uint32_t>(node),
              t, msg.payload.size());
    obs::Emit(obs::EventKind::kNetCausalDeliver,
              static_cast<std::uint32_t>(node), t,
              (msg.depth << 32) | msg.parent);
    causal_depth.Observe(static_cast<double>(msg.depth));
    if (msg.depth > max_depth) max_depth = msg.depth;
    if (msg.depth > clock[node]) {
      clock[node] = msg.depth;
      dominant[node] = t + 1;
    }
    const std::size_t out_before = outputs[node].Size();
    NodeContext ctx(node, n, states[node], outputs[node], policy_, aware_);
    program_.OnReceive(ctx, msg.payload);
    note_output(node, out_before, t + 1, msg.depth);
    dispatch(node, ctx.outgoing_);
    transitions.Increment();
  };

  auto heartbeat = [&](NodeId node) {
    obs::Emit(obs::EventKind::kNetStart, static_cast<std::uint32_t>(node));
    const std::size_t out_before = outputs[node].Size();
    NodeContext ctx(node, n, states[node], outputs[node], policy_, aware_);
    program_.OnStart(ctx);
    note_output(node, out_before, 0, clock[node]);
    dispatch(node, ctx.outgoing_);
  };

  auto finish = [&] {
    result.metrics.GetGauge(obs::kNetCausalMaxDepth)
        .Set(static_cast<double>(max_depth));
    result.metrics.GetGauge(obs::kNetCoordinationDepth)
        .Set(static_cast<double>(first_output_depth));
    for (const Instance& out : outputs) result.output.InsertAll(out);
    return std::move(result);
  };

  // Heartbeat transitions, in scheduler order (order must not matter; the
  // consistency checker sweeps seeds to probe that). The heartbeat-only
  // run fires them in node order and stops there.
  if (scheduler == nullptr) {
    for (NodeId node = 0; node < n; ++node) heartbeat(node);
    return finish();
  }
  for (NodeId node : scheduler->StartOrder(n)) {
    LAMP_CHECK(node < n);
    heartbeat(node);
  }

  // Decision loop: the scheduler picks one action per step until it
  // declares quiescence.
  std::size_t step = 0;
  while (true) {
    const ChannelView view{queued_from, up, step};
    const SchedulerAction action = scheduler->Next(view);
    if (action.kind == SchedulerAction::Kind::kNone) {
      bool quiescent = true;
      for (NodeId i = 0; i < n; ++i) {
        if (!queue[i].empty() || !up[i]) quiescent = false;
      }
      LAMP_CHECK_MSG(quiescent,
                     "scheduler returned kNone on a non-quiescent network");
      break;
    }
    const NodeId node = action.node;
    LAMP_CHECK(node < n);
    switch (action.kind) {
      case SchedulerAction::Kind::kDeliver: {
        LAMP_CHECK_MSG(up[node], "delivery to a crashed node");
        LAMP_CHECK(action.index < queue[node].size());
        InFlight msg = std::move(queue[node][action.index]);
        queue[node].erase(queue[node].begin() +
                          static_cast<std::ptrdiff_t>(action.index));
        queued_from[node].erase(queued_from[node].begin() +
                                static_cast<std::ptrdiff_t>(action.index));
        deliver(node, msg);
        if (keep_log) consumed[node].push_back(std::move(msg));
        break;
      }
      case SchedulerAction::Kind::kDrop: {
        LAMP_CHECK(action.index < queue[node].size());
        result.metrics.GetCounter(obs::kNetFaultDrops).Increment();
        obs::Emit(obs::EventKind::kNetDrop,
                  static_cast<std::uint32_t>(node), 0,
                  queue[node][action.index].payload.size());
        break;  // The queued copy stays: the sender retransmits.
      }
      case SchedulerAction::Kind::kDuplicate: {
        LAMP_CHECK_MSG(up[node], "delivery to a crashed node");
        LAMP_CHECK(action.index < queue[node].size());
        const InFlight msg = queue[node][action.index];  // Copy stays queued.
        result.metrics.GetCounter(obs::kNetFaultDuplicates).Increment();
        obs::Emit(obs::EventKind::kNetDuplicate,
                  static_cast<std::uint32_t>(node), 0, msg.payload.size());
        deliver(node, msg);
        if (keep_log) consumed[node].push_back(msg);
        break;
      }
      case SchedulerAction::Kind::kCrash: {
        LAMP_CHECK_MSG(up[node], "crash of an already-crashed node");
        up[node] = false;
        down_durably[node] = action.durable;
        result.metrics.GetCounter(obs::kNetFaultCrashes).Increment();
        obs::Emit(obs::EventKind::kNetCrash,
                  static_cast<std::uint32_t>(node), action.durable ? 1 : 0,
                  0);
        break;
      }
      case SchedulerAction::Kind::kRestart: {
        LAMP_CHECK_MSG(!up[node], "restart of a running node");
        up[node] = true;
        if (!down_durably[node]) {
          // Volatile outage: the state is lost; the channel retransmits
          // everything the node had consumed (at-least-once delivery).
          states[node] = locals_[node];
          LAMP_CHECK_MSG(keep_log || consumed[node].empty(),
                         "volatile restart without a redelivery log");
          result.metrics.GetCounter(obs::kNetFaultRetransmits)
              .Add(consumed[node].size());
          for (InFlight& msg : consumed[node]) {
            queued_from[node].push_back(msg.from);
            queue[node].push_back(std::move(msg));
          }
          consumed[node].clear();
        }
        result.metrics.GetCounter(obs::kNetFaultRestarts).Increment();
        obs::Emit(obs::EventKind::kNetRestart,
                  static_cast<std::uint32_t>(node),
                  down_durably[node] ? 1 : 0, 0);
        heartbeat(node);  // Recovery re-runs the start transition.
        break;
      }
      case SchedulerAction::Kind::kNone:
        break;  // Handled above.
    }
    ++step;
  }
  obs::Emit(obs::EventKind::kNetQuiescent, 0, 0, transitions.value());
  return finish();
}

std::vector<Instance> DistributeRoundRobin(const Instance& instance,
                                           std::size_t num_nodes) {
  std::vector<Instance> locals;
  locals.reserve(num_nodes);
  for (std::size_t node = 0; node < num_nodes; ++node) {
    locals.push_back(RoundRobinPart(instance, node, num_nodes));
  }
  return locals;
}

std::vector<Instance> DistributeReplicated(const Instance& instance,
                                           std::size_t num_nodes) {
  return std::vector<Instance>(num_nodes, instance);
}

}  // namespace lamp
